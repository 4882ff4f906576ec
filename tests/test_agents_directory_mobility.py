"""Unit tests for the directory facilitator."""

import pytest

from repro.agents.directory import DirectoryFacilitator, ServiceDescription
from repro.agents.platform import AgentPlatform


class TestDirectory:
    @pytest.fixture
    def directory(self, sim):
        return DirectoryFacilitator(sim)

    def test_register_and_search_services(self, directory):
        directory.register(ServiceDescription("a1", "analysis", {"level": 2}))
        directory.register(ServiceDescription("a2", "analysis"))
        directory.register(ServiceDescription("s1", "storage"))
        found = directory.search("analysis")
        assert [d.agent_name for d in found] == ["a1", "a2"]

    def test_search_with_predicate(self, directory):
        directory.register(ServiceDescription("a1", "analysis", {"level": 2}))
        directory.register(ServiceDescription("a2", "analysis", {"level": 3}))
        found = directory.search(
            "analysis", predicate=lambda d: d.properties.get("level") == 3)
        assert [d.agent_name for d in found] == ["a2"]

    def test_deregister_by_type_and_all(self, directory):
        directory.register(ServiceDescription("a1", "analysis"))
        directory.register(ServiceDescription("a1", "storage"))
        directory.deregister("a1", "analysis")
        assert directory.search("analysis") == []
        assert len(directory.services_of("a1")) == 1
        directory.deregister("a1")
        assert directory.services_of("a1") == []

    def test_empty_service_type_rejected(self):
        with pytest.raises(ValueError):
            ServiceDescription("a", "")

    def test_container_profiles_filtered(self, sim, network, transport):
        platform = AgentPlatform(sim, network, transport)
        host_a = network.add_host("ha", "site1")
        host_b = network.add_host("hb", "site1")
        container_a = platform.create_container(
            "ca", host_a, services=("analysis",), knowledge=("traffic",))
        container_b = platform.create_container(
            "cb", host_b, services=("storage",))
        directory = DirectoryFacilitator(sim)
        directory.register_container_profile(container_a.profile())
        directory.register_container_profile(container_b.profile())
        assert len(directory) == 2
        analysis = directory.container_profiles(service="analysis")
        assert [p.container_name for p in analysis] == ["ca"]
        knowing = directory.container_profiles(knowledge="traffic")
        assert {p.container_name for p in knowing} == {"ca", "cb"}
        directory.remove_container_profile("ca")
        assert directory.container_profile("ca") is None

    def test_reregistration_updates(self, sim, network, transport):
        platform = AgentPlatform(sim, network, transport)
        host = network.add_host("h", "site1")
        container = platform.create_container("c", host)
        directory = DirectoryFacilitator(sim)
        directory.register_container_profile(container.profile())
        container.busy_agents = 3
        directory.register_container_profile(container.profile())
        assert len(directory) == 1
        assert directory.container_profile("c").busy_agents == 3
