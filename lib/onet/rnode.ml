module Alg = Iov_core.Algorithm
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module NI = Iov_msg.Node_id
module Codec = Iov_msg.Codec
module Tel = Iov_telemetry.Telemetry
module Tracer = Iov_telemetry.Tracer
module Ev = Iov_telemetry.Event
module Metrics = Iov_telemetry.Metrics
module Ins = Iov_telemetry.Instrument
module Backoff = Iov_guard.Backoff

let src_log = Logs.Src.create "iov.onet" ~doc:"iOverlay real-sockets runtime"

module Log = (val Logs.src_log src_log)

(* The first message on every fresh connection identifies the
   initiating node (its listening identity, not the ephemeral port). *)
let hello_kind = 900
let () = ignore (Mt.Registry.register ~owner:"onet" ~name:"sock-hello" hello_kind)

type in_conn = {
  ic_peer : NI.t;
  ic_fd : Unix.file_descr;
  ic_buf : Msg.t Squeue.t;
  ic_thread : Thread.t;
  ic_bytes : int Atomic.t;
  ic_since : float;
}

type out_conn = {
  oc_peer : NI.t;
  oc_fd : Unix.file_descr;
  oc_buf : Msg.t Squeue.t;
  mutable oc_thread : Thread.t;
  mutable oc_dead : bool;
  oc_bytes : int Atomic.t;
  oc_since : float;
}

type timer = { due : float; fn : unit -> unit }

(* Reconnection discipline for a peer whose link failed: connect
   attempts ride a capped backoff schedule instead of hammering (or
   abandoning) the address. An entry exists only while the peer is
   unreachable; the first successful connect clears it. *)
type rstate = { rc_bo : Backoff.t; mutable rc_due : float }

let reconnect_base = 0.05
let reconnect_cap = 2.0

type t = {
  nid : NI.t;
  listen_fd : Unix.file_descr;
  algo : Alg.t;
  bufcap : int;
  lock : Mutex.t;
  mutable ins : in_conn list;
  mutable outs : out_conn list;
  mutable pending_ins : (NI.t * in_conn) list; (* registered by receivers *)
  engine_inbox : Msg.t Queue.t; (* synthetic notifications, under lock *)
  reconn : (NI.t, rstate) Hashtbl.t; (* under lock *)
  mutable timers : timer list;
  mutable known : NI.Set.t;
  mutable stopping : bool;
  app_bytes_tbl : (int, int) Hashtbl.t; (* engine thread only *)
  mutable engine_thread : Thread.t option;
  mutable accept_threads : Thread.t list;
  rng : Random.State.t;
  n_ins : Ins.t; (* engine counters and event emission *)
  h_batch : Metrics.histogram option;
      (* wire bytes per coalesced flush (onet.batch_bytes), with
         telemetry; batch efficiency is syscalls_total / batched_msgs *)
  batching : bool;
  pool : Batcher.pool; (* sender staging buffers, shared per node *)
  (* wire bytes accepted into the send pipeline (sender queues plus
     staging buffers) and not yet handed to the kernel — the true-byte
     backlog the admission hook judges against *)
  staged_bytes : int Atomic.t;
  mutable admission :
    (now:float -> app:int -> size:int -> backlog:int -> bool) option;
}

let id t = t.nid
let messages_processed t = Ins.switched t.n_ins
let staged_bytes t = Atomic.get t.staged_bytes
let set_admission t hook = t.admission <- hook

let app_bytes t ~app =
  match Hashtbl.find_opt t.app_bytes_tbl app with Some b -> b | None -> 0

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let peers t = with_lock t (fun () -> List.map (fun o -> o.oc_peer) t.outs)

let find_in t peer =
  with_lock t (fun () -> List.find_opt (fun i -> NI.equal i.ic_peer peer) t.ins)

(* the peer's live outgoing connection; a dead one awaits the reaper *)
let live_out t peer =
  with_lock t (fun () ->
      List.find_opt (fun o -> NI.equal o.oc_peer peer && not o.oc_dead) t.outs)

(* bytes per second carried since the connection opened *)
let rate bytes since =
  let dt = Unix.gettimeofday () -. since in
  if dt <= 0. then 0. else float_of_int (Atomic.get bytes) /. dt

let link_bytes t dir peer =
  match dir with
  | `In -> (
    match find_in t peer with Some ic -> Atomic.get ic.ic_bytes | None -> 0)
  | `Out -> (
    match
      with_lock t (fun () ->
          List.find_opt (fun o -> NI.equal o.oc_peer peer) t.outs)
    with
    | Some oc -> Atomic.get oc.oc_bytes
    | None -> 0)

(* ------------------------------------------------------------------ *)
(* Socket helpers                                                      *)

let addr_of (ni : NI.t) =
  Unix.ADDR_INET (Unix.inet_addr_of_string (NI.ip_string ni), ni.port)

(* Writes the whole buffer, retrying partial writes and EINTR; returns
   the number of write syscalls issued. *)
let write_all fd buf =
  let len = Bytes.length buf in
  let rec go off calls =
    if off >= len then calls
    else
      match Unix.write fd buf off (len - off) with
      | n -> go (off + n) (calls + 1)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off (calls + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Receiver and sender threads                                         *)

let recv_reserve = 65536

let receiver_loop t ?bytes ?stream peer fd buf =
  (* a connection accepted by the engine hands over the handshake
     stream: bytes that followed the hello in the same TCP chunk must
     not be lost *)
  let stream =
    match stream with Some s -> s | None -> Codec.Stream.create ()
  in
  let running = ref true in
  (* a whole drained run goes in under one lock acquisition — the
     ingest half of the batching story: the engine's batch pop is only
     worth anything if the receiver is not paying a mutex and a
     condition signal per message *)
  let ingest = function
    | [] -> ()
    | ms ->
      let accepted = Squeue.push_list buf ms in
      List.iteri
        (fun i m ->
          if i < accepted then Ins.msg t.n_ins Ev.Deliver ~peer m
          else
            (* the buffer was closed under us (teardown): the message
               is lost — account for it rather than discarding
               silently *)
            Ins.msg t.n_ins Ev.Drop ~peer m)
        ms;
      if accepted < List.length ms then running := false
  in
  (* The stream is the connection's persistent carry buffer: each read
     lands directly in its free tail ([reserve]/[commit]), so partial
     frames carry over with no per-read chunk and no re-allocation;
     [drain] copies payloads out, so delivered messages never alias
     the reused buffer. The try also covers Malformed raised while
     draining mid-connection, which previously escaped the thread. *)
  (try
     ingest (Codec.Stream.drain stream);
     while !running do
       let rbuf, roff = Codec.Stream.reserve stream recv_reserve in
       match Unix.read fd rbuf roff recv_reserve with
       | 0 -> running := false
       | n ->
         (match bytes with
         | Some c -> Atomic.set c (Atomic.get c + n)
         | None -> ());
         Codec.Stream.commit stream n;
         ingest (Codec.Stream.drain stream)
     done
   with
  | Unix.Unix_error _ | Codec.Malformed _ -> ());
  (* surface the failure to the engine, then drain-close; a full buffer
     must not swallow the notification — fall back to the (unbounded)
     engine inbox so the algorithm always learns of the death *)
  let failed = Msg.with_params ~mtype:Mt.Link_failed ~origin:peer 0 0 in
  if not (Squeue.try_push buf failed) then
    with_lock t (fun () -> Queue.push failed t.engine_inbox);
  Squeue.close buf;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let unstage t n = ignore (Atomic.fetch_and_add t.staged_bytes (-n))

(* Writes one message on its own — its memoized encoding, so a message
   fanned out to n peers is encoded once — and accounts for it. The
   syscalls count against the same onet.syscalls_total key as batched
   flushes, so the two paths compare directly. *)
let write_direct t oc m =
  let wire = Codec.wire m in
  let calls = write_all oc.oc_fd wire in
  Ins.io t.n_ins ~syscalls:calls ~batched:0;
  unstage t (Bytes.length wire);
  Atomic.set oc.oc_bytes (Atomic.get oc.oc_bytes + Bytes.length wire);
  Ins.msg t.n_ins Ev.Send ~peer:oc.oc_peer m

(* The per-message sender: one write syscall per message (the
   pre-batching behaviour, kept for the [~batching:false] baseline the
   netlab experiment measures against). *)
let sender_loop_permsg t oc =
  let running = ref true in
  while !running do
    match Squeue.pop oc.oc_buf with
    | None -> running := false
    | Some m -> (
      try write_direct t oc m
      with Unix.Unix_error _ ->
        oc.oc_dead <- true;
        unstage t (Msg.size m);
        Ins.msg t.n_ins Ev.Drop ~peer:oc.oc_peer m;
        running := false)
  done;
  (try Unix.close oc.oc_fd with Unix.Unix_error _ -> ())

(* The batched sender: drain whatever the queue holds in one lock
   acquisition, coalesce the run of frames into a pooled staging
   buffer, and flush it with (ideally) a single write. The flush is
   adaptive — it happens as soon as the drained run is staged, so an
   idle connection still sends each message immediately; batches only
   form when a backlog exists, which is exactly when syscall overhead
   would otherwise dominate. *)
let sender_loop_batched t oc =
  let batch = Batcher.acquire t.pool in
  let write b off len = Unix.write oc.oc_fd b off len in
  let running = ref true in
  (* messages staged in [batch], newest first, awaiting their Send
     events until the bytes actually reach the kernel *)
  let staged = ref [] in
  let flush () =
    let bytes = Batcher.length batch and msgs = Batcher.staged batch in
    if bytes > 0 then begin
      let syscalls = Batcher.flush batch ~write in
      unstage t bytes;
      Atomic.set oc.oc_bytes (Atomic.get oc.oc_bytes + bytes);
      Ins.io t.n_ins ~syscalls ~batched:msgs;
      (match t.h_batch with Some h -> Ins.observe t.n_ins h bytes | None -> ());
      List.iter (fun m -> Ins.msg t.n_ins Ev.Send ~peer:oc.oc_peer m)
        (List.rev !staged);
      staged := []
    end
  in
  while !running do
    match Squeue.pop_batch oc.oc_buf ~max:t.bufcap with
    | [] -> running := false
    | ms -> (
      let rest = ref ms in
      try
        while !rest <> [] do
          let m = List.hd !rest in
          if Batcher.add batch m then staged := m :: !staged
          else begin
            flush ();
            if Batcher.add batch m then staged := m :: !staged
            else begin
              (* larger than the whole staging buffer: it goes out
                 directly, order preserved by the flush above *)
              write_direct t oc m
            end
          end;
          rest := List.tl !rest
        done;
        flush ()
      with Unix.Unix_error _ ->
        oc.oc_dead <- true;
        (* everything staged or still unprocessed in this run is lost
           with the connection; account each message exactly once *)
        List.iter
          (fun m ->
            unstage t (Msg.size m);
            Ins.msg t.n_ins Ev.Drop ~peer:oc.oc_peer m)
          (List.rev_append !staged !rest);
        staged := [];
        running := false)
  done;
  Batcher.release batch;
  (try Unix.close oc.oc_fd with Unix.Unix_error _ -> ())

let sender_loop t oc =
  if t.batching then sender_loop_batched t oc else sender_loop_permsg t oc

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

(* Next connect attempt toward the peer no earlier than its backoff
   schedule allows. *)
let reconnect_later t peer =
  with_lock t (fun () ->
      let r =
        match Hashtbl.find_opt t.reconn peer with
        | Some r -> r
        | None ->
          let r =
            {
              rc_bo =
                Backoff.create ~base:reconnect_base ~cap:reconnect_cap
                  ~rng:t.rng ();
              rc_due = 0.;
            }
          in
          Hashtbl.add t.reconn peer r;
          r
      in
      r.rc_due <- Unix.gettimeofday () +. Backoff.next r.rc_bo)

(* Engine-side or driver-side: ensure a persistent outgoing
   connection. Must be called with care — creation takes the lock. *)
let ensure_out t peer =
  match live_out t peer with
  | Some o -> o
  | None ->
    (* inside a backoff window from earlier failed attempts: refuse
       without touching the network (callers treat it as any other
       connect failure) *)
    (match with_lock t (fun () -> Hashtbl.find_opt t.reconn peer) with
    | Some r when Unix.gettimeofday () < r.rc_due ->
      raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", "backoff"))
    | Some _ | None -> ());
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (addr_of peer)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       reconnect_later t peer;
       raise e);
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    (* introduce ourselves so the peer registers the right identity *)
    ignore
      (write_all fd
         (Codec.encode
            (Msg.with_params ~mtype:(Mt.Custom hello_kind) ~origin:t.nid 0 0)));
    let buf = Squeue.create ~capacity:t.bufcap in
    let oc =
      {
        oc_peer = peer;
        oc_fd = fd;
        oc_buf = buf;
        oc_thread = Thread.create (fun () -> ()) ();
        oc_dead = false;
        oc_bytes = Atomic.make 0;
        oc_since = Unix.gettimeofday ();
      }
    in
    (* the sender closes over [oc] itself — a [{ oc with ... }] copy
       here would give the thread a private [oc_dead] the reaper never
       reads *)
    oc.oc_thread <- Thread.create (fun () -> sender_loop t oc) ();
    with_lock t (fun () ->
        Hashtbl.remove t.reconn peer;
        t.outs <- oc :: t.outs);
    oc

let connect t peer = ignore (ensure_out t peer)

let send t m peer =
  let size = Msg.size m in
  let admitted =
    match t.admission with
    | Some adm when Mt.is_data m.Msg.mtype ->
      (* the backlog is true pipeline bytes: queued messages plus
         whatever sits in sender staging buffers awaiting a flush, so
         batching cannot hide load from the shed decision *)
      adm ~now:(Unix.gettimeofday ()) ~app:m.Msg.app ~size
        ~backlog:(Atomic.get t.staged_bytes)
    | _ -> true
  in
  if not admitted then Ins.msg t.n_ins Ev.Shed ~peer m
  else begin
    let oc = ensure_out t peer in
    ignore (Atomic.fetch_and_add t.staged_bytes size);
    if Squeue.push oc.oc_buf m then Ins.msg t.n_ins Ev.Enqueue ~peer m
    else begin
      unstage t size;
      Ins.msg t.n_ins Ev.Drop ~peer m
    end
  end

(* ------------------------------------------------------------------ *)
(* The algorithm context                                               *)

let make_ctx t : Alg.ctx =
  {
    Alg.self = t.nid;
    now = Unix.gettimeofday;
    send =
      (fun m dst ->
        try send t m dst
        with Unix.Unix_error _ -> Ins.msg t.n_ins Ev.Drop ~peer:dst m);
    can_send =
      (fun dst ->
        match live_out t dst with
        | Some o -> not (Squeue.is_full o.oc_buf)
        | None -> true);
    known_hosts = (fun () -> NI.Set.elements t.known);
    add_known_host =
      (fun h ->
        if not (NI.equal h t.nid) then
          with_lock t (fun () -> t.known <- NI.Set.add h t.known));
    upstreams =
      (fun () -> with_lock t (fun () -> List.map (fun i -> i.ic_peer) t.ins));
    downstreams = (fun () -> peers t);
    up_throughput =
      (fun peer ->
        match find_in t peer with
        | Some ic -> rate ic.ic_bytes ic.ic_since
        | None -> 0.);
    down_throughput =
      (fun peer ->
        match live_out t peer with
        | Some oc -> rate oc.oc_bytes oc.oc_since
        | None -> 0.);
    measure =
      (fun peer cb ->
        (* a crude RTT probe: TCP connect time to the peer's port *)
        let t0 = Unix.gettimeofday () in
        let lat =
          match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
          | fd -> (
            try
              Unix.connect fd (addr_of peer);
              let dt = Unix.gettimeofday () -. t0 in
              Unix.close fd;
              dt /. 2.
            with Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              infinity)
          | exception Unix.Unix_error _ -> infinity
        in
        cb ~bandwidth:infinity ~latency:lat);
    rng = t.rng;
    trace = (fun s -> Log.info (fun f -> f "[%a] %s" NI.pp t.nid s));
    set_timer =
      (fun delay fn ->
        let due = Unix.gettimeofday () +. delay in
        with_lock t (fun () -> t.timers <- { due; fn } :: t.timers));
    observer = None;
  }

(* ------------------------------------------------------------------ *)
(* The engine thread                                                   *)

let dispatch t ctx (m : Msg.t) =
  Ins.msg t.n_ins Ev.Switch ~peer:m.Msg.origin m;
  if Mt.is_data m.Msg.mtype then begin
    let prev =
      match Hashtbl.find_opt t.app_bytes_tbl m.app with Some b -> b | None -> 0
    in
    Hashtbl.replace t.app_bytes_tbl m.app (prev + Msg.payload_size m);
    match t.algo.Alg.process ctx m with
    | Alg.Consume | Alg.Hold -> ()
    | Alg.Forward dests ->
      List.iter
        (fun d ->
          try send t m d
          with Unix.Unix_error _ -> Ins.msg t.n_ins Ev.Drop ~peer:d m)
        dests
  end
  else begin
    if m.Msg.mtype = Mt.Link_failed then
      (* the same event the simulator's engine emits on link failure *)
      Ins.event t.n_ins Ev.Link_failure ~peer:m.Msg.origin;
    ignore (t.algo.Alg.process ctx m)
  end

let run_timers t =
  let now = Unix.gettimeofday () in
  let due =
    with_lock t (fun () ->
        let due, later = List.partition (fun tm -> tm.due <= now) t.timers in
        t.timers <- later;
        due)
  in
  List.iter (fun tm -> tm.fn ()) due

let engine_loop t =
  let ctx = make_ctx t in
  t.algo.Alg.on_start ctx;
  (* Loop pacing doubles as the accept poll: when the previous
     iteration switched messages the engine spins right back (another
     backlog is likely), otherwise it parks in select for up to 10 ms.
     Idle nodes burn no CPU; loaded nodes are not throttled to one
     iteration per select tick. *)
  let wait = ref 0.01 in
  while not t.stopping do
    (* 1. accept new incoming connections (non-blocking select) *)
    (match Unix.select [ t.listen_fd ] [] [] !wait with
    | [ _ ], _, _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ ->
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        (* the hello message carries the peer identity *)
        let th =
          Thread.create
            (fun () ->
              let stream = Codec.Stream.create () in
              let chunk = Bytes.create 4096 in
              let total_read = ref 0 in
              let rec read_hello () =
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> None
                | n -> (
                  total_read := !total_read + n;
                  Codec.Stream.feed stream ~len:n chunk;
                  match Codec.Stream.next stream with
                  | Some m -> Some m
                  | None -> read_hello ())
                | exception Unix.Unix_error _ -> None
              in
              match read_hello () with
              | Some m when m.Msg.mtype = Mt.Custom hello_kind ->
                let peer = m.Msg.origin in
                let buf = Squeue.create ~capacity:t.bufcap in
                (* data bytes may have arrived in the same chunk as
                   the hello: count them and keep the stream *)
                let ic_bytes = Atomic.make (!total_read - Msg.size m) in
                let ic_thread =
                  Thread.create
                    (fun () ->
                      receiver_loop t ~bytes:ic_bytes ~stream peer fd buf)
                    ()
                in
                with_lock t (fun () ->
                    t.pending_ins <-
                      ( peer,
                        {
                          ic_peer = peer;
                          ic_fd = fd;
                          ic_buf = buf;
                          ic_thread;
                          ic_bytes;
                          ic_since = Unix.gettimeofday ();
                        } )
                      :: t.pending_ins)
              | Some _ | None -> (
                try Unix.close fd with Unix.Unix_error _ -> ()))
            ()
        in
        with_lock t (fun () ->
            t.accept_threads <- th :: t.accept_threads)
      | exception Unix.Unix_error _ -> ())
    | _, _, _ -> ());
    (* 2. adopt freshly registered incoming connections *)
    let fresh = with_lock t (fun () ->
        let f = t.pending_ins in
        t.pending_ins <- [];
        f)
    in
    List.iter
      (fun (peer, ic) ->
        Log.debug (fun f -> f "%a: connection from %a" NI.pp t.nid NI.pp peer);
        t.ins <- t.ins @ [ ic ])
      fresh;
    let worked = ref false in
    (* 3. engine-inbox notifications *)
    let inbox =
      with_lock t (fun () ->
          let l = List.of_seq (Queue.to_seq t.engine_inbox) in
          Queue.clear t.engine_inbox;
          l)
    in
    if inbox <> [] then worked := true;
    List.iter (dispatch t ctx) inbox;
    (* 4. switch messages from receiver buffers, round-robin across
       connections but draining each buffer's whole backlog in one lock
       acquisition — the switching analogue of the senders' batch pop *)
    List.iter
      (fun ic ->
        match Squeue.try_pop_batch ic.ic_buf ~max:t.bufcap with
        | [] -> ()
        | ms ->
          worked := true;
          List.iter (dispatch t ctx) ms)
      t.ins;
    (* drop fully drained, closed connections *)
    t.ins <-
      List.filter
        (fun ic ->
          not (Squeue.closed ic.ic_buf && Squeue.length ic.ic_buf = 0))
        t.ins;
    (* 4b. reap dead senders (their threads have exited) and put the
       peer on the reconnect schedule instead of abandoning it *)
    let reaped =
      with_lock t (fun () ->
          let dead, live = List.partition (fun o -> o.oc_dead) t.outs in
          t.outs <- live;
          dead)
    in
    List.iter
      (fun oc ->
        Squeue.close oc.oc_buf;
        reconnect_later t oc.oc_peer)
      reaped;
    (* 4c. proactively re-establish links whose backoff window has
       elapsed — a peer that came back starts receiving again even
       before the next application send *)
    let now = Unix.gettimeofday () in
    let due =
      with_lock t (fun () ->
          Hashtbl.fold
            (fun p r acc -> if now >= r.rc_due then p :: acc else acc)
            t.reconn [])
    in
    List.iter
      (fun p -> try connect t p with Unix.Unix_error _ -> ())
      due;
    (* 5. timers *)
    run_timers t;
    if !worked then wait := 0.
    else begin
      wait := 0.01;
      Thread.yield ()
    end
  done

(* ------------------------------------------------------------------ *)

let start ?(host = "127.0.0.1") ?(port = 0) ?(buffer_capacity = 16)
    ?(batching = true) ?telemetry algo =
  if buffer_capacity <= 0 then invalid_arg "Rnode.start: buffer_capacity";
  (* writes to a peer that died abruptly must surface as EPIPE for the
     failure path to run, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listen_fd 64;
  let actual_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let nid = NI.of_string (Printf.sprintf "%s:%d" host actual_port) in
  (* the histogram first: registration order is snapshot order *)
  let h_batch =
    Option.map
      (fun tl ->
        Metrics.histogram (Tel.metrics tl) ~scope:(NI.to_string nid)
          "onet.batch_bytes")
      telemetry
  in
  let ins =
    Ins.create ?telemetry ~runtime:Ins.Sockets ~clock:Unix.gettimeofday nid
  in
  let t =
    {
      nid;
      listen_fd;
      algo;
      bufcap = buffer_capacity;
      lock = Mutex.create ();
      ins = [];
      outs = [];
      pending_ins = [];
      engine_inbox = Queue.create ();
      reconn = Hashtbl.create 4;
      timers = [];
      known = NI.Set.empty;
      stopping = false;
      app_bytes_tbl = Hashtbl.create 4;
      engine_thread = None;
      accept_threads = [];
      rng = Random.State.make [| actual_port |];
      n_ins = ins;
      h_batch;
      batching;
      pool = Batcher.pool ();
      staged_bytes = Atomic.make 0;
      admission = None;
    }
  in
  t.engine_thread <- Some (Thread.create (fun () -> engine_loop t) ());
  t

let shutdown t =
  if not t.stopping then begin
    t.stopping <- true;
    Ins.event t.n_ins Ev.Teardown ~peer:Tracer.nil_peer;
    (match t.engine_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    let outs = with_lock t (fun () -> t.outs) in
    List.iter
      (fun oc ->
        Squeue.close oc.oc_buf;
        Thread.join oc.oc_thread;
        try Unix.close oc.oc_fd with Unix.Unix_error _ -> ())
      outs;
    let ins = with_lock t (fun () -> t.ins @ List.map snd t.pending_ins) in
    List.iter
      (fun ic ->
        (try Unix.shutdown ic.ic_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        Squeue.close ic.ic_buf;
        Thread.join ic.ic_thread;
        (* actually release the fd: a merely-shutdown socket would keep
           ACKing (and discarding) the peer's writes forever, so the
           peer would never observe the death; a closed one answers RST
           like a dead process does *)
        try Unix.close ic.ic_fd with Unix.Unix_error _ -> ())
      ins;
    List.iter Thread.join (with_lock t (fun () -> t.accept_threads))
  end

let kill t =
  if not t.stopping then begin
    (* slam every socket before the orderly teardown: peers observe the
       failure immediately (reset/EOF on their next operation) and
       whatever was queued for transmission is lost — an abrupt process
       death rather than a drain. [shutdown] then reaps the threads and
       records the teardown event as usual. *)
    let outs, ins =
      with_lock t (fun () -> (t.outs, t.ins @ List.map snd t.pending_ins))
    in
    List.iter
      (fun oc ->
        try Unix.shutdown oc.oc_fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      outs;
    List.iter
      (fun ic ->
        try Unix.shutdown ic.ic_fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      ins;
    shutdown t
  end
