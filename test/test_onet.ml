(* Tests for the real-sockets runtime: the thread-safe queue and
   loopback node chains. *)

module Squeue = Iov_onet.Squeue
module Batcher = Iov_onet.Batcher
module Rnode = Iov_onet.Rnode
module Alg = Iov_core.Algorithm
module Ialg = Iov_core.Ialgorithm
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module NI = Iov_msg.Node_id
module Codec = Iov_msg.Codec
module Tel = Iov_telemetry.Telemetry
module Metrics = Iov_telemetry.Metrics

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Squeue *)

let test_squeue_basic () =
  let q = Squeue.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Squeue.capacity q);
  Alcotest.(check bool) "push" true (Squeue.push q 1);
  Alcotest.(check bool) "try_push" true (Squeue.try_push q 2);
  Alcotest.(check bool) "full" true (Squeue.is_full q);
  Alcotest.(check bool) "try_push full" false (Squeue.try_push q 3);
  Alcotest.(check (option int)) "pop order" (Some 1) (Squeue.pop q);
  Alcotest.(check (option int)) "try_pop" (Some 2) (Squeue.try_pop q);
  Alcotest.(check (option int)) "empty try_pop" None (Squeue.try_pop q)

let test_squeue_close () =
  let q = Squeue.create ~capacity:4 in
  ignore (Squeue.push q 1);
  Squeue.close q;
  Alcotest.(check bool) "closed" true (Squeue.closed q);
  Alcotest.(check bool) "push after close" false (Squeue.push q 2);
  Alcotest.(check (option int)) "drains" (Some 1) (Squeue.pop q);
  Alcotest.(check (option int)) "then None" None (Squeue.pop q)

let test_squeue_threads () =
  (* one producer, one consumer, blocking on both ends *)
  let q = Squeue.create ~capacity:8 in
  let n = 5000 in
  let producer =
    Thread.create
      (fun () ->
        for i = 0 to n - 1 do
          ignore (Squeue.push q i)
        done;
        Squeue.close q)
      ()
  in
  let received = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () =
          match Squeue.pop q with
          | Some x ->
            received := x :: !received;
            loop ()
          | None -> ()
        in
        loop ())
      ()
  in
  Thread.join producer;
  Thread.join consumer;
  Alcotest.(check int) "all received" n (List.length !received);
  Alcotest.(check (list int)) "in order" (List.init n (fun i -> i))
    (List.rev !received)

let test_squeue_blocking_pop_wakes () =
  let q = Squeue.create ~capacity:2 in
  let result = ref None in
  let consumer = Thread.create (fun () -> result := Squeue.pop q) () in
  Thread.delay 0.05;
  ignore (Squeue.push q 42);
  Thread.join consumer;
  Alcotest.(check (option int)) "woken with value" (Some 42) !result

let test_squeue_pop_batch () =
  let q = Squeue.create ~capacity:8 in
  List.iter (fun i -> ignore (Squeue.push q i)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "takes up to max" [ 1; 2; 3 ]
    (Squeue.pop_batch q ~max:3);
  Alcotest.(check (list int)) "try takes the rest" [ 4; 5 ]
    (Squeue.try_pop_batch q ~max:10);
  Alcotest.(check (list int)) "try on empty" []
    (Squeue.try_pop_batch q ~max:10);
  Squeue.close q;
  Alcotest.(check (list int)) "closed and drained" []
    (Squeue.pop_batch q ~max:10)

let test_squeue_pop_batch_blocks_for_first () =
  (* blocks like pop for the first element, then returns without
     waiting for the batch to fill *)
  let q = Squeue.create ~capacity:8 in
  let result = ref [] in
  let consumer =
    Thread.create (fun () -> result := Squeue.pop_batch q ~max:8) ()
  in
  Thread.delay 0.05;
  ignore (Squeue.push q 7);
  Thread.join consumer;
  Alcotest.(check (list int)) "woken with the single element" [ 7 ] !result

let test_squeue_push_list () =
  let q = Squeue.create ~capacity:4 in
  (* more elements than capacity: push_list must block mid-way and the
     consumer's drains must unblock it *)
  let xs = List.init 20 Fun.id in
  let received = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () =
          match Squeue.pop_batch q ~max:4 with
          | [] -> ()
          | got ->
            received := !received @ got;
            loop ()
        in
        loop ())
      ()
  in
  Alcotest.(check int) "all accepted" 20 (Squeue.push_list q xs);
  Squeue.close q;
  Thread.join consumer;
  Alcotest.(check (list int)) "in order" xs !received;
  Alcotest.(check int) "closed queue accepts none" 0
    (Squeue.push_list q [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Batcher *)

let msg_gen =
  QCheck.map
    (fun (seq, (app, n)) ->
      Msg.data ~origin:(NI.synthetic (seq mod 13)) ~app ~seq
        (Bytes.make n (Char.chr (33 + (n mod 90)))))
    QCheck.(pair (int_bound 100000) (pair (int_bound 100) (int_bound 300)))

(* Stage messages the way the batched sender does — flush when a
   message does not fit, write an encoding larger than the whole
   staging buffer directly — collecting everything [write] sees. *)
let stage_and_flush batch out ms =
  let write b off len =
    Buffer.add_subbytes out b off len;
    len
  in
  List.iter
    (fun m ->
      if not (Batcher.add batch m) then begin
        ignore (Batcher.flush batch ~write);
        if not (Batcher.add batch m) then
          Buffer.add_bytes out (Codec.encode m)
      end)
    ms;
  ignore (Batcher.flush batch ~write)

let batcher_props =
  [
    qtest "batched byte stream identical to per-message writes"
      QCheck.(small_list msg_gen)
      (fun ms ->
        (* a deliberately tiny staging buffer so flush-and-retry and
           the oversized direct path both trigger *)
        let batch = Batcher.standalone ~cap:256 () in
        let out = Buffer.create 1024 in
        stage_and_flush batch out ms;
        let per_message = Buffer.create 1024 in
        List.iter (fun m -> Buffer.add_bytes per_message (Codec.encode m)) ms;
        Buffer.contents out = Buffer.contents per_message);
    qtest "batched stream redecodes to the same messages"
      QCheck.(small_list msg_gen)
      (fun ms ->
        let batch = Batcher.standalone ~cap:256 () in
        let out = Buffer.create 1024 in
        stage_and_flush batch out ms;
        let s = Codec.Stream.create () in
        Codec.Stream.feed s (Buffer.to_bytes out);
        let back = Codec.Stream.drain s in
        List.length back = List.length ms
        && List.for_all2
             (fun (a : Msg.t) (b : Msg.t) ->
               a.mtype = b.mtype && NI.equal a.origin b.origin
               && a.app = b.app && a.seq = b.seq
               && Bytes.equal a.payload b.payload)
             ms back);
  ]

let test_batcher_partial_write_eintr () =
  (* regression: a flush must survive short writes and EINTR mid-batch
     without losing, duplicating or reordering bytes *)
  let batch = Batcher.standalone ~cap:4096 () in
  let ms =
    List.init 10 (fun i ->
        Msg.data ~origin:(NI.synthetic i) ~app:1 ~seq:i (Bytes.make 40 'e'))
  in
  List.iter (fun m -> Alcotest.(check bool) "fits" true (Batcher.add batch m)) ms;
  let expect = Batcher.length batch in
  let out = Buffer.create 1024 in
  let calls = ref 0 in
  let write b off len =
    incr calls;
    if !calls mod 3 = 0 then raise (Unix.Unix_error (Unix.EINTR, "write", ""));
    let k = min 7 len in
    Buffer.add_subbytes out b off k;
    k
  in
  let syscalls = Batcher.flush batch ~write in
  Alcotest.(check int) "every byte written once" expect (Buffer.length out);
  Alcotest.(check int) "every call counted" !calls syscalls;
  Alcotest.(check bool) "batch reset" true (Batcher.is_empty batch);
  let per_message = Buffer.create 1024 in
  List.iter (fun m -> Buffer.add_bytes per_message (Codec.encode m)) ms;
  Alcotest.(check bool) "byte-identical to per-message writes" true
    (Buffer.contents out = Buffer.contents per_message)

let test_batcher_pool_reuse () =
  let pool = Batcher.pool ~cap:1024 ~max_idle:1 () in
  let a = Batcher.acquire pool in
  let buf_a = Batcher.buffer a in
  ignore
    (Batcher.add a
       (Msg.data ~origin:(NI.synthetic 1) ~app:1 ~seq:0 (Bytes.make 16 'p')));
  Batcher.release a;
  let b = Batcher.acquire pool in
  Alcotest.(check bool) "released buffer is reused" true
    (Batcher.buffer b == buf_a);
  Alcotest.(check bool) "and comes back empty" true (Batcher.is_empty b);
  (* two live batchers never share a buffer *)
  let c = Batcher.acquire pool in
  Alcotest.(check bool) "live batchers are distinct" false
    (Batcher.buffer b == Batcher.buffer c);
  Batcher.release b;
  (* max_idle 1: the pool keeps one buffer, drops the second *)
  Batcher.release c;
  let d = Batcher.acquire pool in
  let e = Batcher.acquire pool in
  Alcotest.(check bool) "one pooled buffer was retained" true
    (Batcher.buffer d == Batcher.buffer b);
  Alcotest.(check bool) "beyond max_idle was dropped" false
    (Batcher.buffer e == Batcher.buffer c)

let test_batcher_reject_oversized () =
  let batch = Batcher.standalone ~cap:128 () in
  let big =
    Msg.data ~origin:(NI.synthetic 1) ~app:1 ~seq:0 (Bytes.make 200 'b')
  in
  Alcotest.(check bool) "does not fit" false (Batcher.add batch big);
  Alcotest.(check bool) "no state change" true (Batcher.is_empty batch);
  Alcotest.(check int) "no bytes written for an empty flush" 0
    (Batcher.flush batch ~write:(fun _ _ _ -> Alcotest.fail "wrote"))

(* ------------------------------------------------------------------ *)
(* Rnode over loopback *)

let wait_for ?(timeout = 10.) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      loop ()
    end
  in
  loop ()

let test_rnode_direct_delivery () =
  let sink = Rnode.start Alg.null in
  let driver = Rnode.start Alg.null in
  let app = 4 in
  for seq = 0 to 99 do
    Rnode.send driver
      (Msg.data ~origin:(Rnode.id driver) ~app ~seq (Bytes.make 100 'a'))
      (Rnode.id sink)
  done;
  let ok = wait_for (fun () -> Rnode.app_bytes sink ~app >= 100 * 100) in
  Rnode.shutdown driver;
  Rnode.shutdown sink;
  Alcotest.(check bool) "all bytes delivered over TCP" true ok

(* driver -> relay -> sink over loopback; returns the relay's
   [messages_processed] and its registered [switched] counter (if
   telemetry is attached), both read once every message has arrived *)
let relay_chain ?telemetry () =
  let app = 5 and n = 200 in
  let sink = Rnode.start ?telemetry Alg.null in
  let relay_alg (_ : Alg.ctx) (m : Msg.t) =
    if m.Msg.mtype = Mt.Data && m.app = app then
      Some (Alg.Forward [ Rnode.id sink ])
    else None
  in
  let relay = Rnode.start ?telemetry (Ialg.make ~name:"relay" relay_alg) in
  let driver = Rnode.start ?telemetry Alg.null in
  for seq = 0 to n - 1 do
    Rnode.send driver
      (Msg.data ~origin:(Rnode.id driver) ~app ~seq (Bytes.make 64 'b'))
      (Rnode.id relay)
  done;
  let ok = wait_for (fun () -> Rnode.app_bytes sink ~app >= n * 64) in
  let processed = Rnode.messages_processed relay in
  let switched =
    Option.map
      (fun tel ->
        match
          List.assoc_opt "switched"
            (Metrics.snapshot ~scope:(NI.to_string (Rnode.id relay))
               (Tel.metrics tel))
        with
        | Some (Metrics.Counter c) -> c
        | Some _ | None -> Alcotest.fail "relay switched counter missing")
      telemetry
  in
  List.iter Rnode.shutdown [ driver; relay; sink ];
  Alcotest.(check bool) "relayed through the engine" true ok;
  (n, processed, switched)

let test_rnode_relay_chain () =
  (* no telemetry: the count is still kept, one per forwarded message *)
  let n, processed, _ = relay_chain () in
  Alcotest.(check int) "relay processed each forwarded message once" n
    processed;
  let _, processed, switched = relay_chain ~telemetry:(Tel.create ()) () in
  Alcotest.(check (option int)) "processed is the switched counter"
    (Some processed) switched

let test_rnode_byte_metering () =
  let sink = Rnode.start Alg.null in
  let driver = Rnode.start Alg.null in
  let app = 6 in
  let n = 50 and payload = 200 in
  for seq = 0 to n - 1 do
    Rnode.send driver
      (Msg.data ~origin:(Rnode.id driver) ~app ~seq (Bytes.make payload 'm'))
      (Rnode.id sink)
  done;
  let wire = n * (payload + Iov_msg.Message.header_size) in
  let ok = wait_for (fun () -> Rnode.app_bytes sink ~app >= n * payload) in
  Alcotest.(check bool) "delivered" true ok;
  Alcotest.(check int) "sender out counter" wire
    (Rnode.link_bytes driver `Out (Rnode.id sink));
  (* the sink's in counter includes the hello-stripped... the hello is
     consumed before the counter attaches, so exactly the data bytes *)
  let ok_in =
    wait_for (fun () -> Rnode.link_bytes sink `In (Rnode.id driver) >= wire)
  in
  Alcotest.(check bool) "receiver in counter" true ok_in;
  List.iter Rnode.shutdown [ driver; sink ]

let test_rnode_persistent_connection () =
  let sink = Rnode.start Alg.null in
  let driver = Rnode.start Alg.null in
  Rnode.connect driver (Rnode.id sink);
  Rnode.connect driver (Rnode.id sink);
  Alcotest.(check int) "one persistent connection" 1
    (List.length (Rnode.peers driver));
  List.iter Rnode.shutdown [ driver; sink ]

let test_rnode_peer_death_notifies () =
  let failures = ref 0 in
  let watch (_ : Alg.ctx) (m : Msg.t) =
    if m.Msg.mtype = Mt.Link_failed then incr failures;
    Some Alg.Consume
  in
  let watcher = Rnode.start (Ialg.make ~name:"watch" watch) in
  let peer = Rnode.start Alg.null in
  (* make the peer connect to the watcher so the watcher has an
     incoming connection whose death it can observe *)
  Rnode.send peer
    (Msg.data ~origin:(Rnode.id peer) ~app:1 ~seq:0 (Bytes.make 8 'x'))
    (Rnode.id watcher);
  let delivered = wait_for (fun () -> Rnode.app_bytes watcher ~app:1 > 0) in
  Alcotest.(check bool) "initial delivery" true delivered;
  Rnode.shutdown peer;
  let ok = wait_for (fun () -> !failures >= 1) in
  Rnode.shutdown watcher;
  Alcotest.(check bool) "LinkFailed surfaced" true ok

(* an abrupt peer close (raw socket vanishing mid-connection, no
   graceful drain) must surface LinkFailed to the algorithm and leave
   the matching link-failure event in the node's flight recorder *)
let test_rnode_abrupt_close_telemetry () =
  let tele = Iov_telemetry.Telemetry.create () in
  let failures = ref 0 in
  let watch (_ : Alg.ctx) (m : Msg.t) =
    if m.Msg.mtype = Mt.Link_failed then incr failures;
    Some Alg.Consume
  in
  let watcher =
    Rnode.start ~telemetry:tele (Ialg.make ~name:"watch" watch)
  in
  let claimed = NI.of_string "127.0.0.1:45678" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET
       (Unix.inet_addr_of_string "127.0.0.1", (Rnode.id watcher).NI.port));
  let write_msg m =
    let wire = Iov_msg.Codec.encode m in
    ignore (Unix.write fd wire 0 (Bytes.length wire))
  in
  (* introduce ourselves under the claimed identity, then one data
     message so the connection is fully registered before it dies *)
  write_msg (Msg.with_params ~mtype:(Mt.Custom 900) ~origin:claimed 0 0);
  write_msg (Msg.data ~origin:claimed ~app:1 ~seq:0 (Bytes.make 16 'y'));
  let delivered = wait_for (fun () -> Rnode.app_bytes watcher ~app:1 > 0) in
  Alcotest.(check bool) "delivered before close" true delivered;
  Unix.close fd;
  let ok = wait_for (fun () -> !failures >= 1) in
  Alcotest.(check bool) "LinkFailed surfaced" true ok;
  let events =
    List.filter
      (fun (e : Iov_telemetry.Telemetry.event) ->
        e.Iov_telemetry.Telemetry.kind = Iov_telemetry.Event.Link_failure)
      (Iov_telemetry.Telemetry.events tele)
  in
  Rnode.shutdown watcher;
  (match events with
  | [] -> Alcotest.fail "no link-failure telemetry event"
  | e :: _ ->
    Alcotest.(check bool) "recorded at the watcher" true
      (NI.equal e.Iov_telemetry.Telemetry.node (Rnode.id watcher));
    Alcotest.(check bool) "names the failed peer" true
      (e.Iov_telemetry.Telemetry.peer = Some claimed));
  let snap =
    Iov_telemetry.Metrics.snapshot
      ~scope:(NI.to_string (Rnode.id watcher))
      (Iov_telemetry.Telemetry.metrics tele)
  in
  (match List.assoc_opt "link_failures" snap with
  | Some (Iov_telemetry.Metrics.Counter n) ->
    Alcotest.(check bool) "link_failures counter" true (n >= 1)
  | _ -> Alcotest.fail "no link_failures counter");
  match List.assoc_opt "delivered" snap with
  | Some (Iov_telemetry.Metrics.Counter n) ->
    Alcotest.(check bool) "delivered counter" true (n >= 1)
  | _ -> Alcotest.fail "no delivered counter"

(* a peer that dies and later comes back at the same address must be
   re-adopted automatically: failed connect attempts ride the capped
   backoff schedule (refused locally inside the window, not hammered),
   and the engine's proactive pass re-establishes the link so traffic
   flows again without driver intervention *)
let test_rnode_reconnect_after_peer_restart () =
  let app = 7 in
  let driver = Rnode.start Alg.null in
  let sink1 = Rnode.start Alg.null in
  let peer = Rnode.id sink1 in
  let send seq =
    try
      Rnode.send driver
        (Msg.data ~origin:(Rnode.id driver) ~app ~seq (Bytes.make 32 'r'))
        peer;
      true
    with Unix.Unix_error _ -> false
  in
  ignore (send 0);
  Alcotest.(check bool) "delivered before the crash" true
    (wait_for (fun () -> Rnode.app_bytes sink1 ~app >= 32));
  Rnode.kill sink1;
  (* poke the dead link until the failure is noticed; once it is, the
     backoff window refuses further attempts without touching the
     network *)
  let backoff_refusals = ref 0 in
  for seq = 1 to 12 do
    (try
       Rnode.send driver
         (Msg.data ~origin:(Rnode.id driver) ~app ~seq (Bytes.make 32 'r'))
         peer
     with
    | Unix.Unix_error (Unix.ECONNREFUSED, _, "backoff") ->
      incr backoff_refusals
    | Unix.Unix_error _ -> ());
    Thread.delay 0.02
  done;
  Alcotest.(check bool) "attempts ride the backoff window" true
    (!backoff_refusals >= 1);
  (* resurrect the peer at the same address: the proactive reconnect
     pass must re-adopt it and deliveries resume *)
  let sink2 = Rnode.start ~port:peer.NI.port Alg.null in
  let flowed =
    wait_for (fun () ->
        if Rnode.app_bytes sink2 ~app > 0 then true
        else begin
          ignore (send 100);
          false
        end)
  in
  Alcotest.(check bool) "delivery after the peer returned" true flowed;
  Alcotest.(check bool) "link re-established" true
    (List.exists (NI.equal peer) (Rnode.peers driver));
  List.iter Rnode.shutdown [ driver; sink2 ]

(* the admission hook gates data sends on true pipeline bytes; refused
   messages are shed (telemetry), not enqueued, and control traffic
   bypasses the hook entirely *)
let test_rnode_admission_shed () =
  let tele = Tel.create () in
  let sink = Rnode.start Alg.null in
  let driver = Rnode.start ~telemetry:tele Alg.null in
  let app_ok = 11 and app_shed = 12 in
  Rnode.set_admission driver
    (Some (fun ~now:_ ~app ~size:_ ~backlog:_ -> app <> app_shed));
  for seq = 0 to 19 do
    Rnode.send driver
      (Msg.data ~origin:(Rnode.id driver) ~app:app_shed ~seq
         (Bytes.make 32 's'))
      (Rnode.id sink);
    Rnode.send driver
      (Msg.data ~origin:(Rnode.id driver) ~app:app_ok ~seq (Bytes.make 32 'k'))
      (Rnode.id sink)
  done;
  let ok = wait_for (fun () -> Rnode.app_bytes sink ~app:app_ok >= 20 * 32) in
  Alcotest.(check bool) "admitted app delivered" true ok;
  Alcotest.(check int) "shed app never left the driver" 0
    (Rnode.app_bytes sink ~app:app_shed);
  let snap =
    Metrics.snapshot ~scope:(NI.to_string (Rnode.id driver)) (Tel.metrics tele)
  in
  (match List.assoc_opt "guard.shed_total" snap with
  | Some (Metrics.Counter n) -> Alcotest.(check int) "shed counter" 20 n
  | _ -> Alcotest.fail "no guard.shed_total counter");
  let drained = wait_for (fun () -> Rnode.staged_bytes driver = 0) in
  Alcotest.(check bool) "staged bytes drain back to zero" true drained;
  (* a control message passes a reject-everything hook *)
  Rnode.set_admission driver (Some (fun ~now:_ ~app:_ ~size:_ ~backlog:_ -> false));
  let before = Rnode.link_bytes driver `Out (Rnode.id sink) in
  Rnode.send driver
    (Msg.control ~mtype:Mt.Boot ~origin:(Rnode.id driver) Bytes.empty)
    (Rnode.id sink);
  let sent_ctl =
    wait_for (fun () -> Rnode.link_bytes driver `Out (Rnode.id sink) > before)
  in
  Alcotest.(check bool) "control bypasses admission" true sent_ctl;
  List.iter Rnode.shutdown [ driver; sink ]

(* under a sustained burst the batched sender must coalesce: strictly
   fewer write syscalls than messages, every data message through the
   staging buffer, and the batch-size histogram accounting for every
   staged byte exactly once *)
let test_rnode_batched_syscall_accounting () =
  let tele = Tel.create () in
  let sink = Rnode.start ~buffer_capacity:512 Alg.null in
  let driver = Rnode.start ~buffer_capacity:512 ~telemetry:tele Alg.null in
  let app = 13 and msgs = 2000 and payload = 64 in
  for seq = 0 to msgs - 1 do
    Rnode.send driver
      (Msg.data ~origin:(Rnode.id driver) ~app ~seq (Bytes.make payload 'z'))
      (Rnode.id sink)
  done;
  let ok = wait_for (fun () -> Rnode.app_bytes sink ~app >= msgs * payload) in
  Alcotest.(check bool) "all delivered" true ok;
  let counter name =
    match
      List.assoc_opt name
        (Metrics.snapshot
           ~scope:(NI.to_string (Rnode.id driver))
           (Tel.metrics tele))
    with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "no %s counter" name
  in
  (* the sink can observe the last batch's bytes a beat before the
     driver's sender thread books them — wait the race out *)
  ignore (wait_for (fun () -> counter "onet.batched_msgs" >= msgs));
  let snap =
    Metrics.snapshot ~scope:(NI.to_string (Rnode.id driver)) (Tel.metrics tele)
  in
  let syscalls = counter "onet.syscalls_total" in
  Alcotest.(check bool)
    (Printf.sprintf "coalesced (%d syscalls for %d msgs)" syscalls msgs)
    true
    (syscalls > 0 && syscalls < msgs);
  Alcotest.(check int) "every message rode the batched path" msgs
    (counter "onet.batched_msgs");
  let wire = msgs * (payload + Msg.header_size) in
  (match List.assoc_opt "onet.batch_bytes" snap with
  | Some (Metrics.Histogram { count; sum; _ }) ->
    Alcotest.(check int) "histogram sums every staged byte" wire sum;
    Alcotest.(check bool) "one observation per flush" true
      (count > 0 && count <= syscalls)
  | _ -> Alcotest.fail "no onet.batch_bytes histogram");
  Alcotest.(check int) "pipeline fully drained" 0 (Rnode.staged_bytes driver);
  List.iter Rnode.shutdown [ driver; sink ]

(* ~batching:false restores the one-write-per-message sender *)
let test_rnode_permsg_mode () =
  let tele = Tel.create () in
  let sink = Rnode.start Alg.null in
  let driver = Rnode.start ~batching:false ~telemetry:tele Alg.null in
  let app = 14 and msgs = 50 in
  for seq = 0 to msgs - 1 do
    Rnode.send driver
      (Msg.data ~origin:(Rnode.id driver) ~app ~seq (Bytes.make 16 'p'))
      (Rnode.id sink)
  done;
  let ok = wait_for (fun () -> Rnode.app_bytes sink ~app >= msgs * 16) in
  Alcotest.(check bool) "all delivered" true ok;
  let counter name =
    match
      List.assoc_opt name
        (Metrics.snapshot
           ~scope:(NI.to_string (Rnode.id driver))
           (Tel.metrics tele))
    with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "no %s counter" name
  in
  ignore (wait_for (fun () -> counter "onet.syscalls_total" >= msgs));
  Alcotest.(check bool) "at least one write per message" true
    (counter "onet.syscalls_total" >= msgs);
  Alcotest.(check int) "nothing coalesced" 0 (counter "onet.batched_msgs");
  List.iter Rnode.shutdown [ driver; sink ]

let test_rnode_observer_bootstrap () =
  (* the portable observer algorithm served over real TCP: two nodes
     boot against it; the second learns about the first *)
  let oa = Iov_observer.Obs_algorithm.create ~poll:false () in
  let observer = Rnode.start (Iov_observer.Obs_algorithm.algorithm oa) in
  let learned = ref [] in
  let client name =
    let alg =
      Ialg.make ~name (fun ctx m ->
          (match m.Msg.mtype with
          | Mt.Boot_reply ->
            ignore (Ialg.default ctx m);
            learned := (name, ctx.Alg.known_hosts ()) :: !learned
          | _ -> ());
          Some Alg.Consume)
    in
    let node = Rnode.start alg in
    Rnode.send node
      (Msg.control ~mtype:Mt.Boot ~origin:(Rnode.id node) Bytes.empty)
      (Rnode.id observer);
    node
  in
  let n1 = client "n1" in
  let ok1 =
    wait_for (fun () ->
        List.length (Iov_observer.Obs_algorithm.alive oa) >= 1)
  in
  Alcotest.(check bool) "first boot registered" true ok1;
  let n2 = client "n2" in
  let ok2 =
    wait_for (fun () ->
        List.exists (fun (name, hosts) -> name = "n2" && hosts <> []) !learned)
  in
  Alcotest.(check bool) "second boot handed the first node" true ok2;
  (match
     List.find_opt (fun (name, _) -> name = "n2") !learned
   with
  | Some (_, hosts) ->
    Alcotest.(check bool) "it is n1" true
      (List.exists (NI.equal (Rnode.id n1)) hosts)
  | None -> Alcotest.fail "n2 never learned hosts");
  List.iter Rnode.shutdown [ observer; n1; n2 ]

let () =
  Alcotest.run "onet"
    [
      ( "squeue",
        [
          Alcotest.test_case "push/pop" `Quick test_squeue_basic;
          Alcotest.test_case "close semantics" `Quick test_squeue_close;
          Alcotest.test_case "producer/consumer threads" `Quick
            test_squeue_threads;
          Alcotest.test_case "blocking pop wakes" `Quick
            test_squeue_blocking_pop_wakes;
          Alcotest.test_case "batch pop" `Quick test_squeue_pop_batch;
          Alcotest.test_case "batch pop blocks for the first element"
            `Quick test_squeue_pop_batch_blocks_for_first;
          Alcotest.test_case "push_list blocks and keeps order" `Quick
            test_squeue_push_list;
        ] );
      ( "batcher",
        batcher_props
        @ [
            Alcotest.test_case "partial writes and EINTR mid-batch" `Quick
              test_batcher_partial_write_eintr;
            Alcotest.test_case "pool reuse never aliases live buffers"
              `Quick test_batcher_pool_reuse;
            Alcotest.test_case "oversized message rejected cleanly" `Quick
              test_batcher_reject_oversized;
          ] );
      ( "rnode",
        [
          Alcotest.test_case "direct delivery" `Quick
            test_rnode_direct_delivery;
          Alcotest.test_case "relay chain" `Quick test_rnode_relay_chain;
          Alcotest.test_case "byte metering" `Quick test_rnode_byte_metering;
          Alcotest.test_case "persistent connections" `Quick
            test_rnode_persistent_connection;
          Alcotest.test_case "peer death notification" `Quick
            test_rnode_peer_death_notifies;
          Alcotest.test_case "abrupt close emits link-failure telemetry"
            `Quick test_rnode_abrupt_close_telemetry;
          Alcotest.test_case "reconnect after peer restart" `Quick
            test_rnode_reconnect_after_peer_restart;
          Alcotest.test_case "admission hook sheds data, passes control"
            `Quick test_rnode_admission_shed;
          Alcotest.test_case "batched sender coalesces and accounts"
            `Quick test_rnode_batched_syscall_accounting;
          Alcotest.test_case "per-message mode writes one per message"
            `Quick test_rnode_permsg_mode;
          Alcotest.test_case "observer bootstrap over TCP" `Quick
            test_rnode_observer_bootstrap;
        ] );
    ]
