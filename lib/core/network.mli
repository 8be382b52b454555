(** The simulated overlay runtime: virtualized iOverlay nodes, their
    message-switching engines, persistent connections, bandwidth
    emulation, QoS measurement and failure handling — everything the
    paper's engine provides, executed deterministically on
    {!Iov_dsim.Sim}.

    A network holds nodes (each running an {!Algorithm.t}) placed on
    hosts (each with an optional shared-CPU model, for the paper's
    virtualized-nodes experiments), plus non-node endpoints such as the
    observer. Data messages flow through per-link bounded buffers under
    the emulated bandwidth constraints; all other message types take
    the control path (the node's publicized port): latency only, with
    per-type byte accounting. *)

type t
type node
type host

(** {1 Construction} *)

val create :
  ?seed:int ->
  ?default_latency:float ->
  ?buffer_capacity:int ->
  ?report_period:float ->
  ?inactivity_timeout:float ->
  ?detect_delay:float ->
  ?pipeline_depth:int ->
  ?telemetry:Iov_telemetry.Telemetry.t ->
  unit ->
  t
(** [default_latency] (seconds, default 0.001) applies to links between
    nodes with no latency model; [buffer_capacity] (messages, default
    5 — the paper's start-up default) sizes receiver and sender
    buffers; [report_period] (default 1.0) paces throughput reports and
    engine ticks; [inactivity_timeout] (default: disabled) tears down
    links idle for that many seconds after having carried traffic;
    [detect_delay] (default 0.05) is the socket-level failure-detection
    latency; [pipeline_depth] (default 8) bounds the transmissions a
    link may reserve ahead — the TCP-window-style pipelining that keeps
    throughput up across wide-area latency. Every node keeps the
    engine counters of {!Iov_telemetry.Instrument} whether or not
    [telemetry] is given. [telemetry] attaches a deployment: the
    counters are then registered in its registry, scoped by the node's
    [ip:port], and while it is enabled every engine also records the
    structured event vocabulary ({!Iov_telemetry.Event.kind}) into its
    per-node flight recorder and fills the simulator's histograms. *)

val telemetry : t -> Iov_telemetry.Telemetry.t option

val sim : t -> Iov_dsim.Sim.t
val now : t -> float
val rng : t -> Random.State.t

val run : ?until:float -> t -> unit
(** Convenience wrapper over {!Iov_dsim.Sim.run}. *)

(** {1 Hosts and the shared-CPU model} *)

val default_host : t -> host
(** An unconstrained host every node lands on unless placed
    explicitly. *)

val add_host :
  t -> ?cpu:[ `Unconstrained | `Calibrated of float * float ] -> string ->
  host
(** [`Calibrated (a, b)]: switching one message costs [a + b * threads]
    seconds of the host CPU, where [threads] counts every engine,
    receiver and sender thread currently on the host — the
    context-switching overhead model behind the paper's Fig. 5. *)

val host_threads : host -> int
val host_name : host -> string

(** {1 Latency model} *)

val set_latency_fn : t -> (Iov_msg.Node_id.t -> Iov_msg.Node_id.t -> float) -> unit
(** Installs a pairwise one-way latency model (seconds), consulted when
    links are created and for control messages. *)

(** {1 Nodes} *)

val add_node :
  t ->
  ?host:host ->
  ?bw:Bwspec.t ->
  ?buffer_capacity:int ->
  ?observer:Iov_msg.Node_id.t ->
  ?seeds:Iov_msg.Node_id.t list ->
  id:Iov_msg.Node_id.t ->
  Algorithm.t ->
  node
(** Starts a node. If [observer] is given, the engine sends a [boot]
    request to it at start-up and reports status on demand. [seeds]
    pre-populates the node's known-hosts record before the algorithm's
    [on_start] runs — the decentralized join hook: a gossip node boots
    off any seed member with no observer round-trip (self is
    ignored).

    An id whose previous holder was terminated may be reused: the fresh
    node replaces the dead incarnation (recorded as a [respawn]
    telemetry event) — this is how chaos churn schedules bring nodes
    back. @raise Invalid_argument if the id is in use by a live node. *)

val node : t -> Iov_msg.Node_id.t -> node
(** @raise Not_found for unknown ids. *)

val find_node : t -> Iov_msg.Node_id.t -> node option
val nodes : t -> node list
val node_ids : t -> Iov_msg.Node_id.t list
val id : node -> Iov_msg.Node_id.t
val is_alive : node -> bool
val ctx : node -> Algorithm.ctx
(** The node's algorithm context — exposed so harnesses and tests can
    drive a node the way its algorithm would. *)

val known_hosts : node -> Iov_msg.Node_id.t list

(** {1 Endpoints (observer, proxy)} *)

val register_endpoint : t -> Iov_msg.Node_id.t -> (Iov_msg.Message.t -> unit) -> unit
(** Attaches a non-node control endpoint (the observer and its proxy).
    Control messages addressed to this id invoke the handler after the
    modelled latency. *)

val unregister_endpoint : t -> Iov_msg.Node_id.t -> unit

val endpoint_send : t -> from:Iov_msg.Node_id.t -> Iov_msg.Message.t ->
  Iov_msg.Node_id.t -> unit
(** Control-path send originating at an endpoint. *)

(** {1 Topology and control operations}

    These mirror the observer's control commands; the observer issues
    them via control messages, experiments may also call them
    directly. *)

val connect : t -> Iov_msg.Node_id.t -> Iov_msg.Node_id.t -> unit
(** Pre-establishes the persistent connection from the first node to
    the second (connections are otherwise created on first send). *)

val disconnect : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t -> unit
(** Gracefully closes a connection to new traffic: in-flight and
    buffered messages still drain, after which the link stays idle. *)

val set_node_bandwidth : t -> Iov_msg.Node_id.t -> Bwspec.t -> unit
val set_link_bandwidth : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t ->
  float -> unit
(** Creates the connection if absent. @raise Invalid_argument on a
    non-positive rate. *)

val set_link_weight : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t ->
  int -> unit
(** Sets the weighted-round-robin weight the destination's switch gives
    the link's receiver buffer (default 1) — the paper's "dynamically
    tunable weights". @raise Invalid_argument on a weight < 1 or an
    unknown link. *)

val link_weight : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t -> int
(** 0 for unknown links. *)

val terminate : t -> Iov_msg.Node_id.t -> unit
(** Kills a node: all its links fail; peers detect the failure after
    [detect_delay] and are notified through [LinkFailed] messages;
    buffered messages are counted as lost. Idempotent: terminating an
    already-dead (or unknown) node is a complete no-op — no loss is
    re-counted and no second [domino-teardown] event is emitted.
    {!kill_node} is the same operation under its fault-injection
    name. *)

val inject_control : t -> Iov_msg.Message.t -> Iov_msg.Node_id.t -> unit
(** Delivers a control message to a node immediately (no latency); for
    tests and local workload drivers. *)

(** {1 Introspection} *)

val link_exists : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t -> bool

val link_throughput : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t -> float
(** Measured delivered bytes/second over the last complete report
    window; 0. for unknown links. *)

val link_latency : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t -> float option
val links : t -> (Iov_msg.Node_id.t * Iov_msg.Node_id.t) list
val upstreams_of : t -> Iov_msg.Node_id.t -> Iov_msg.Node_id.t list
val downstreams_of : t -> Iov_msg.Node_id.t -> Iov_msg.Node_id.t list

val app_rate : t -> Iov_msg.Node_id.t -> app:int -> float
(** Bytes/second of [data] traffic for application [app] delivered to
    (received by) the node — the paper's end-to-end throughput
    metric. *)

val app_bytes : t -> Iov_msg.Node_id.t -> app:int -> int

val control_bytes_sent : t -> Iov_msg.Node_id.t -> Iov_msg.Mtype.t -> int
(** Control-message overhead accounting (paper Figs. 15–18). *)

val control_bytes_received : t -> Iov_msg.Node_id.t -> Iov_msg.Mtype.t -> int
val control_bytes_sent_all : t -> Iov_msg.Mtype.t -> int

val lost : t -> Iov_msg.Node_id.t -> int * int
(** [(bytes, messages)] lost at the node due to failures. *)

val make_status : t -> Iov_msg.Node_id.t -> Iov_msg.Status.t option
(** The engine-composed status snapshot (as sent to the observer). *)

(** {1 Overload guard}

    The engine's admission mechanism; the policy (priority token
    buckets, queue-gradient degradation) lives in {!module:Iov_guard}
    and is installed per node by guard-aware deployments. *)

val set_admission :
  t ->
  Iov_msg.Node_id.t ->
  (now:float -> app:int -> size:int -> backlog:int -> bool) option ->
  unit
(** Installs (or, with [None], removes) the node's admission hook. The
    engine consults it before any data message — algorithm-originated
    or forwarded by the switch — enters a sender buffer; [backlog] is
    the number of messages currently staged across the node's sender
    buffers and overflow queues. A [false] verdict sheds the message:
    it is dropped with a [Shed] telemetry event (and a bump of the
    per-node [guard.shed_total] counter) instead of a [Drop], and is
    never retried. @raise Invalid_argument for unknown nodes. *)

val node_switched : t -> Iov_msg.Node_id.t -> int
(** Messages the node has switched, counted with or without telemetry
    (and across respawns of the id); 0 for unknown nodes. The progress
    signal {!Iov_guard.Watchdog} supervises. *)

val node_backlog : t -> Iov_msg.Node_id.t -> int
(** Messages currently staged across the node's sender buffers and
    overflow queues — the congestion measure the admission hook is
    handed, readable here for experiments and tests. 0 for unknown
    nodes. *)

(** {1 Failure injection}

    The fault-injection surface of the engine. These entry points are
    consumed by the {!module:Iov_chaos} subsystem (seeded scenarios
    compiled to scheduled faults), by the experiments, and by tests.
    All of them draw any randomness from the simulator's seeded rng, so
    a seeded run with injected faults remains fully deterministic. *)

val kill_node : t -> Iov_msg.Node_id.t -> unit
(** Abrupt node failure — an alias of {!terminate}, and like it
    idempotent: double kills and kills racing a Domino-Effect teardown
    neither double-count losses nor emit duplicate teardown events. *)

val stall_link : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t -> bool -> unit
(** A stalled link silently discards transmissions — emulating a hung
    peer, to exercise inactivity-based failure detection.
    @raise Invalid_argument for unknown links. *)

val set_partition : t -> (Iov_msg.Node_id.t -> Iov_msg.Node_id.t -> bool) option -> unit
(** Installs (or, with [None], heals) a network partition. While
    active, any data transmission or node-to-node control message from
    [a] to [b] with [cut a b = true] is blackholed at delivery time:
    data losses are counted at the destination as usual, links stay
    open (TCP keeps trying), and traffic resumes untouched once the
    partition heals. Observer/endpoint control traffic models the
    out-of-band management channel and is never cut. *)

val is_partitioned : t -> Iov_msg.Node_id.t -> Iov_msg.Node_id.t -> bool
(** Whether the active partition (if any) cuts [a -> b]. *)

val set_link_loss : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t ->
  ?corrupt:float -> float -> unit
(** [set_link_loss t ~src ~dst ~corrupt p] makes each transmission on
    the link independently vanish with probability [p] (counted as lost
    at the destination), and each delivered payload get one bit flipped
    in a private copy with probability [corrupt] (default 0 — the copy
    keeps zero-copy fanout payloads shared by other links intact).
    Creates the connection if absent; [p = 0.] restores a clean link.
    Draws come from the simulator rng: deterministic under a seed.
    @raise Invalid_argument if a probability is outside [0, 1] or [src]
    is unknown. *)

val link_loss : t -> src:Iov_msg.Node_id.t -> dst:Iov_msg.Node_id.t ->
  (float * float) option
(** The link's current [(loss, corruption)] probabilities. *)
