(** A real iOverlay node over Unix TCP sockets — the paper's engine
    architecture (Fig. 4) on actual threads:

    - one receiver thread per incoming connection, blocking on the
      socket and pushing framed messages into its bounded circular
      buffer;
    - one sender thread per outgoing connection, draining its buffer
      in batches, coalescing the run of frames into a pooled staging
      buffer ({!Batcher}) and flushing it with as few [write] syscalls
      as possible;
    - one engine thread owning the algorithm, which accepts new
      connections on the publicized port ([select] with timeout),
      drains receiver buffers round-robin, consults
      [Algorithm.process], and places forwarded messages into sender
      buffers.

    Persistent connections: all messages between two nodes share one
    TCP connection regardless of application. Failure detection:
    socket errors and EOF surface to the algorithm as [LinkFailed]
    messages. This runtime exists to validate the engine design
    against real sockets (loopback deployment); the simulator runs the
    measured experiments. *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?buffer_capacity:int ->
  ?batching:bool ->
  ?telemetry:Iov_telemetry.Telemetry.t ->
  Iov_core.Algorithm.t ->
  t
(** Binds (default [127.0.0.1], ephemeral port), spawns the engine
    thread and returns. [buffer_capacity] (messages, default 16) sizes
    each receiver/sender buffer. [batching] (default [true]) selects
    the coalescing sender path: each sender drains its whole backlog
    per lock acquisition and ships it with (ideally) one [write];
    [~batching:false] restores one write syscall per message — the
    baseline the netlab experiment measures against. The byte stream on
    the wire is identical either way. The node keeps the engine
    counters of {!Iov_telemetry.Instrument}, plus [onet.syscalls_total]
    and [onet.batched_msgs], with or without telemetry. [telemetry]
    attaches a deployment sharing the simulator's event vocabulary: the
    counters are registered scoped by the node's [ip:port] next to the
    [onet.batch_bytes] histogram, and while it is enabled the node
    records enqueue/switch/send/deliver/drop/shed/link-failure/teardown
    events into its flight recorder (guarded by a mutex — the runtime is
    multi-threaded, unlike the simulator).
    @raise Unix.Unix_error on bind failure. *)

val id : t -> Iov_msg.Node_id.t
(** The node identity: actual IP and bound port. *)

val connect : t -> Iov_msg.Node_id.t -> unit
(** Ensures a persistent outgoing connection (no-op if present).
    @raise Unix.Unix_error if the peer is unreachable. *)

val send : t -> Iov_msg.Message.t -> Iov_msg.Node_id.t -> unit
(** Thread-safe external send (the driver-side equivalent of the
    algorithm's [ctx.send]); blocks while the sender buffer is full —
    natural TCP-like pacing for driver loops. Data messages first pass
    the {!set_admission} hook, if any; refused messages are shed
    silently (a [Shed] telemetry event, no enqueue). *)

val set_admission :
  t ->
  (now:float -> app:int -> size:int -> backlog:int -> bool) option ->
  unit
(** Installs (or clears) an admission hook over outbound data messages
    — the sockets-runtime twin of the simulator's
    [Network.set_admission], sharing the [Iov_guard.Admission]
    signature. [backlog] is {!staged_bytes}: wire bytes accepted into
    the send pipeline and not yet handed to the kernel, so shedding
    decisions see the true staged load even when the batched path is
    holding bytes in a staging buffer. Control-plane messages bypass
    the hook. Not synchronized with in-flight sends; install before
    load, or tolerate a raced message. *)

val staged_bytes : t -> int
(** Wire bytes currently inside the send pipeline (sender queues plus
    staging buffers), i.e. accepted by {!send} but not yet written to
    the kernel. *)

val app_bytes : t -> app:int -> int
(** Data payload bytes delivered to this node's algorithm for [app]. *)

val messages_processed : t -> int
(** Messages the engine thread has dispatched to the algorithm: the
    node's [switched] counter, kept with or without telemetry. *)

val peers : t -> Iov_msg.Node_id.t list
(** Current outgoing connections. *)

val link_bytes : t -> [ `In | `Out ] -> Iov_msg.Node_id.t -> int
(** Wire bytes carried so far on the connection from/to the peer (the
    QoS counters backing the context's throughput queries); 0 for
    unknown peers. *)

val shutdown : t -> unit
(** Graceful: closes connections, joins all threads. Idempotent. *)

val kill : t -> unit
(** Abrupt failure for chaos injection: slams every socket shut first —
    peers observe the death immediately and queued messages are lost —
    then reaps the threads like {!shutdown}. Idempotent. *)
