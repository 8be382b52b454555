(** One node's engine instrumentation, shared by both runtimes: the
    engine counters and the emission of message and node events into
    the node's flight recorder. The simulator ([Network]) and the
    sockets runtime ([Rnode]) report every engine event through {!msg}
    and {!event} and keep no counters of their own.

    {b Counters always count.} [enqueued], [switched], [sent],
    [delivered], [dropped], [guard.shed_total] and [link_failures]
    advance whether or not a {!Telemetry.t} is attached or enabled, so
    the signals the system reasons with (the watchdog's progress
    counter) never depend on tracing. An update is a mutable-cell bump:
    no lock, no allocation.

    An attached deployment registers the counters in its registry under
    the node's [ip:port] scope and the names above; without one no name
    is registered. While the deployment is enabled ({!tracing}), {!msg}
    and {!event} also append to the node's flight recorder, and the
    runtimes update their own histograms and gauges. *)

type t

(** Which engine the node runs on. *)
type runtime =
  | Sim  (** the single-threaded simulator: events are recorded lock-free *)
  | Sockets
      (** the threaded sockets runtime: events originate on receiver,
          sender and engine threads, so the recorder is guarded by a
          per-node mutex; the batched-I/O counters
          [onet.syscalls_total] and [onet.batched_msgs] are registered
          too *)

val create :
  ?telemetry:Telemetry.t ->
  runtime:runtime ->
  clock:(unit -> float) ->
  Iov_msg.Node_id.t ->
  t
(** Setup path: allocates, and registers the counters when [telemetry]
    is given. Registration is idempotent, so an id created again on the
    same deployment continues its predecessor's counts. [clock] stamps
    events and is called only while tracing. *)

val tracing : t -> bool
(** A deployment is attached and enabled. *)

val msg : t -> Event.kind -> peer:Iov_msg.Node_id.t -> Iov_msg.Message.t -> unit
(** One message event: bumps the counter of [kind] ([Enqueue],
    [Switch], [Send], [Deliver], [Drop] or [Shed]) and, while tracing,
    records the event with the message's trace id, app, sequence number
    and size. *)

val event : t -> Event.kind -> peer:Iov_msg.Node_id.t -> unit
(** An event tied to no message ([Link_failure], [Teardown],
    [Respawn]; {!Tracer.nil_peer} when there is no peer): bumps
    [link_failures] for [Link_failure] and, while tracing, records the
    event. *)

val io : t -> syscalls:int -> batched:int -> unit
(** Sockets I/O accounting: [write] calls issued, and messages that
    left through a coalesced flush. *)

val observe : t -> Metrics.histogram -> int -> unit
(** While tracing, files a value into one of the runtime's own
    histograms (under the recorder lock on the sockets runtime). *)

val switched : t -> int
(** Messages switched so far — the node's progress signal. *)
