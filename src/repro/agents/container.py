"""Agent containers and their resource profiles.

A container groups agents on a host.  Figure 4 of the paper has containers
registering *resource profiles* with the grid root when they join; the
profile here carries the host's static capacities, the container's service
capabilities (what analyses it knows how to run), and dynamic load
indicators the load-balancing policies consume.
"""


class ResourceProfile:
    """A snapshot of a container's capacity, capability and load.

    Static part (registration time, Figure 4): host name, CPU/disk
    capacities, services, knowledge areas.  Dynamic part (refreshed on
    demand, the paper's "request the current profile"): CPU queue length,
    utilization, and number of busy agents.
    """

    def __init__(
        self,
        container_name,
        host_name,
        cpu_capacity,
        disk_capacity,
        services,
        knowledge=(),
        cpu_queue_length=0,
        cpu_utilization=0.0,
        busy_agents=0,
    ):
        self.container_name = container_name
        self.host_name = host_name
        self.cpu_capacity = cpu_capacity
        self.disk_capacity = disk_capacity
        self.services = tuple(services)
        self.knowledge = tuple(knowledge)
        self.cpu_queue_length = cpu_queue_length
        self.cpu_utilization = cpu_utilization
        self.busy_agents = busy_agents

    @property
    def idle(self):
        """The paper's "resources that are idle" criterion."""
        return self.cpu_queue_length == 0 and self.busy_agents == 0

    def offers(self, service):
        return service in self.services

    def knows(self, knowledge_area):
        return not self.knowledge or knowledge_area in self.knowledge

    def to_content(self):
        """As validated ontology content (see :data:`CONTAINER_PROFILE`)."""
        from repro.agents.ontology import CONTAINER_PROFILE

        return CONTAINER_PROFILE.make(
            container=self.container_name,
            host=self.host_name,
            cpu_capacity=self.cpu_capacity,
            disk_capacity=self.disk_capacity,
            services=list(self.services),
            knowledge=list(self.knowledge),
        )

    def __repr__(self):
        return "ResourceProfile(%s@%s, cpu=%g, services=%s, idle=%s)" % (
            self.container_name,
            self.host_name,
            self.cpu_capacity,
            list(self.services),
            self.idle,
        )


class AgentContainer:
    """A named group of agents bound to a host.

    Args:
        name: unique container name.
        host: the host providing resources.
        platform: the owning :class:`~repro.agents.platform.AgentPlatform`.
        services: capability tags used in directory lookups
            ("analysis:performance", "storage", ...).
        knowledge: knowledge areas (rule groups) this container holds.
    """

    def __init__(self, name, host, platform, services=(), knowledge=()):
        self.name = name
        self.host = host
        self.platform = platform
        self.services = tuple(services)
        self.knowledge = tuple(knowledge)
        self.agents = {}
        self.busy_agents = 0
        self.alive = True
        platform._register_container(self)

    @property
    def sim(self):
        return self.platform.sim

    # -- agent management ------------------------------------------------

    def deploy(self, agent):
        """Install an agent into this container and start it."""
        if not self.alive:
            raise RuntimeError("container %s is down" % self.name)
        if agent.name in self.agents:
            raise ValueError("agent %r already in container %s" % (
                agent.name, self.name))
        if agent.container is not None:
            raise RuntimeError("agent %s is already deployed" % agent.name)
        agent.container = self
        self.agents[agent.name] = agent
        self.platform._register_agent(agent)
        agent.start()
        return agent

    def remove(self, agent):
        """Stop and detach an agent."""
        if self.agents.get(agent.name) is not agent:
            raise ValueError("agent %s not in container %s" % (agent.name, self.name))
        agent.stop()
        del self.agents[agent.name]
        self.platform._deregister_agent(agent)
        agent.container = None

    def shutdown(self):
        """Kill the container and every agent in it (fault injection)."""
        if not self.alive:
            return
        self.alive = False
        for agent in list(self.agents.values()):
            agent.stop()
            self.platform._deregister_agent(agent)
            agent.container = None
        self.agents = {}
        self.platform._deregister_container(self)

    # -- profile ------------------------------------------------------------

    def profile(self):
        """Current :class:`ResourceProfile` (static + dynamic load)."""
        return ResourceProfile(
            container_name=self.name,
            host_name=self.host.name,
            cpu_capacity=self.host.cpu.capacity,
            disk_capacity=self.host.disk.capacity,
            services=self.services,
            knowledge=self.knowledge,
            cpu_queue_length=self.host.cpu.queue_length,
            cpu_utilization=self.host.cpu.utilization(),
            busy_agents=self.busy_agents,
        )

    def __repr__(self):
        return "AgentContainer(%r @ %s, agents=%d)" % (
            self.name, self.host.name, len(self.agents),
        )
