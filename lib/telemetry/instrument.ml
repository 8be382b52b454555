module NI = Iov_msg.Node_id
module Msg = Iov_msg.Message

type runtime = Sim | Sockets

(* Counter bumps take no lock, although on the sockets runtime
   receiver, sender and engine threads all bump the same cells. That is
   safe because every thread of a node is a systhread of one domain:
   only one of them runs OCaml code at a time, and the runtime switches
   between them only at allocations, poll points and blocking calls. A
   bump ([Metrics.incr]/[Metrics.add]) is a load, an add and a store
   with none of those in between, so no bump is ever lost. Running a
   node's threads on several domains would break this; the counters
   would then need [Atomic]. *)
type t = {
  recorder : (Telemetry.t * Tracer.t) option;
  lock : Mutex.t option; (* guards [recorder] on the sockets runtime *)
  clock : unit -> float;
  enqueued : Metrics.counter;
  switched : Metrics.counter;
  sent : Metrics.counter;
  delivered : Metrics.counter;
  dropped : Metrics.counter;
  shed : Metrics.counter;
  link_failures : Metrics.counter;
  syscalls : Metrics.counter;
  batched : Metrics.counter;
}

let create ?telemetry ~runtime ~clock nid =
  let named =
    match telemetry with
    | None -> fun _ -> Metrics.detached_counter ()
    | Some tl ->
      let m = Telemetry.metrics tl and scope = NI.to_string nid in
      fun key -> Metrics.counter m ~scope key
  in
  let io key =
    match runtime with Sockets -> named key | Sim -> Metrics.detached_counter ()
  in
  (* registration order is snapshot order: this is the order the
     runtimes have always registered in (after their own histograms),
     so snapshots and status blobs stay byte-identical *)
  let batched = io "onet.batched_msgs" in
  let syscalls = io "onet.syscalls_total" in
  let link_failures = named "link_failures" in
  let shed = named "guard.shed_total" in
  let dropped = named "dropped" in
  let delivered = named "delivered" in
  let sent = named "sent" in
  let switched = named "switched" in
  let enqueued = named "enqueued" in
  {
    recorder = Option.map (fun tl -> (tl, Telemetry.tracer tl nid)) telemetry;
    lock = (match runtime with Sockets -> Some (Mutex.create ()) | Sim -> None);
    clock;
    enqueued;
    switched;
    sent;
    delivered;
    dropped;
    shed;
    link_failures;
    syscalls;
    batched;
  }

let tracing t =
  match t.recorder with Some (tl, _) -> Telemetry.enabled tl | None -> false

(* called only while tracing; stamps the event under the recorder lock,
   if any, so time and global sequence order agree *)
let record t tl tr kind ~peer ~id ~app ~mseq ~size =
  match t.lock with
  | None ->
    Telemetry.record tl tr ~time:(t.clock ()) ~kind ~peer ~id ~app ~mseq ~size
  | Some mu ->
    Mutex.lock mu;
    Telemetry.record tl tr ~time:(t.clock ()) ~kind ~peer ~id ~app ~mseq ~size;
    Mutex.unlock mu

let[@inline] count t (kind : Event.kind) =
  match kind with
  | Enqueue -> Metrics.incr t.enqueued
  | Switch -> Metrics.incr t.switched
  | Send -> Metrics.incr t.sent
  | Deliver -> Metrics.incr t.delivered
  | Drop -> Metrics.incr t.dropped
  | Shed -> Metrics.incr t.shed
  | Link_failure -> Metrics.incr t.link_failures
  | Teardown | Respawn | Route_change | Path_switch | Dup_suppressed | Suspect
  | Confirm | View_exchange | Breaker_open | Breaker_close | Wedge
  | Retransmit ->
    ()

let msg t kind ~peer (m : Msg.t) =
  count t kind;
  match t.recorder with
  | Some (tl, tr) when Telemetry.enabled tl ->
    record t tl tr kind ~peer ~id:(Event.id_of_msg m) ~app:m.Msg.app
      ~mseq:m.Msg.seq ~size:(Msg.size m)
  | Some _ | None -> ()

let event t kind ~peer =
  count t kind;
  match t.recorder with
  | Some (tl, tr) when Telemetry.enabled tl ->
    record t tl tr kind ~peer ~id:Event.no_id ~app:0 ~mseq:0 ~size:0
  | Some _ | None -> ()

let io t ~syscalls ~batched =
  Metrics.add t.syscalls syscalls;
  Metrics.add t.batched batched

let observe t h v =
  if tracing t then
    match t.lock with
    | None -> Metrics.observe h v
    | Some mu ->
      Mutex.lock mu;
      Metrics.observe h v;
      Mutex.unlock mu

let switched t = Metrics.value t.switched
