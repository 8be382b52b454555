(* The sockets workloads: a driver, a relay and one or two sinks, each
   an [Rnode] in this process, talking over loopback TCP with the
   runtime's default buffers. The driver is the benchmark's own loop
   calling [Rnode.send]; the relay runs the stock [Flood] algorithm; the
   sinks are {!Sink} oracles. *)

open Util
module Rnode = Iov_onet.Rnode
module Alg = Iov_core.Algorithm
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module Flood = Iov_algos.Flood
module Tel = Iov_telemetry.Telemetry
module Metrics = Iov_telemetry.Metrics

type shape = {
  payload : int;  (** bytes *)
  sinks : int;  (** relay fanout *)
  rate : float option;  (** open-loop Poisson rate (msg/s); closed loop if [None] *)
}

let app = 1
let warm_app = 2

(* The closed loop's window: the driver sends only while fewer than
   this many messages are on their way to the slowest sink. Without it
   the kernel's loopback socket buffers would hold seconds of traffic,
   so latency would measure buffer size and the drain would outlast any
   deadline. Of the windows tried (64 to 16384 messages), 128 gave the
   steadiest throughput on both closed-loop workloads. *)
let window = 128

(* The driver parks when the window is full and is woken once the
   slowest sink has freed a sixteenth of it, so waiting costs one
   wake-up per [window / 16] messages rather than polling, and the
   number in flight stays close to [window]. *)
type gate = {
  lock : Mutex.t;
  room : Condition.t;
  waiting : bool Atomic.t;
  sent : int Atomic.t;
}

let gate () =
  { lock = Mutex.create (); room = Condition.create ();
    waiting = Atomic.make false; sent = Atomic.make 0 }

let low_water = window - (window / 16)

(* sink side, after each delivery *)
let open_gate g sink =
  if Atomic.get g.waiting && Atomic.get g.sent - Sink.delivered sink <= low_water
  then begin
    Mutex.lock g.lock;
    Atomic.set g.waiting false;
    Condition.broadcast g.room;
    Mutex.unlock g.lock
  end

(* how long undelivered messages may take after the driver stops before
   they count as lost *)
let drain_s = 5.

type nodes = { driver : Rnode.t; relay : Rnode.t; sink_nodes : Rnode.t array }

let shutdown n =
  Rnode.shutdown n.driver;
  Rnode.shutdown n.relay;
  Array.iter Rnode.shutdown n.sink_nodes

(* Recorders of the traced pass, one per thread that makes spans. *)
type tracing = {
  r_driver : Trace.recorder;
  r_relay : Trace.recorder;
  r_sinks : Trace.recorder array;
  mutable staged_max : int;
}

let send_id seq = { Trace.layer = "Rnode.send"; node = "driver"; app; seq }
let relay_id seq = { Trace.layer = "Algorithm.process"; node = "relay"; app; seq }

let sink_algorithm ?tr g sink =
  Alg.make ~name:"bench-sink" (fun _ m ->
      if m.Msg.mtype = Mt.Data then begin
        if m.Msg.app = warm_app then Atomic.incr sink.Sink.warm
        else begin
          let t0 = now_ns () in
          Sink.deliver sink ~now:t0 ~app:m.Msg.app ~seq:m.Msg.seq m.Msg.payload;
          open_gate g sink;
          match tr with
          | None -> ()
          | Some tr ->
            let i = sink.Sink.index in
            Trace.add tr.r_sinks.(i)
              ~parent:(relay_id m.Msg.seq)
              { Trace.layer = "Algorithm.process"; node = Printf.sprintf "sink%d" i;
                app; seq = m.Msg.seq }
              ~t0 ~t1:(now_ns ())
        end
      end;
      Alg.Consume)

(* The relay's [process] wrapped in a span (traced pass only). *)
let traced_relay tr relay_ref (alg : Alg.t) =
  {
    alg with
    Alg.process =
      (fun ctx m ->
        if m.Msg.mtype = Mt.Data && m.Msg.app = app then begin
          let t0 = now_ns () in
          let v = alg.Alg.process ctx m in
          let t1 = now_ns () in
          Trace.add tr.r_relay ~parent:(send_id m.Msg.seq) (relay_id m.Msg.seq)
            ~t0 ~t1;
          (match !relay_ref with
          | Some r -> tr.staged_max <- max tr.staged_max (Rnode.staged_bytes r)
          | None -> ());
          v
        end
        else alg.Alg.process ctx m);
  }

let wait_until ~deadline_ns cond =
  while (not (cond ())) && now_ns () < deadline_ns do
    Thread.delay 0.0002
  done;
  cond ()

(* Starts the nodes and connects them. Set-up time runs from the first
   [Rnode.start] to the return of the last [Rnode.connect]. A probe
   message then crosses the chain to every sink before any measurement,
   so no measured message waits for a connection to be adopted. *)
let start_nodes ?tel ?tr g sinks =
  Gc.full_major ();
  let t0 = now_ns () in
  let sink_nodes =
    Array.map (fun s -> Rnode.start ?telemetry:tel (sink_algorithm ?tr g s)) sinks
  in
  let sink_ids = Array.to_list (Array.map Rnode.id sink_nodes) in
  let flood = Flood.create () in
  Flood.set_route flood ~app ~downstreams:sink_ids ();
  Flood.set_route flood ~app:warm_app ~downstreams:sink_ids ();
  let relay_ref = ref None in
  let relay_alg =
    match tr with
    | None -> Flood.algorithm flood
    | Some tr -> traced_relay tr relay_ref (Flood.algorithm flood)
  in
  let relay = Rnode.start ?telemetry:tel relay_alg in
  relay_ref := Some relay;
  let driver = Rnode.start ?telemetry:tel Alg.null in
  List.iter (Rnode.connect relay) sink_ids;
  Rnode.connect driver (Rnode.id relay);
  let setup_s = float_of_int (now_ns () - t0) *. 1e-9 in
  Rnode.send driver
    (Msg.data ~origin:(Rnode.id driver) ~app:warm_app ~seq:0 (Bytes.make 8 'w'))
    (Rnode.id relay);
  let up =
    wait_until ~deadline_ns:(now_ns () + 10_000_000_000) (fun () ->
        Array.for_all (fun s -> Atomic.get s.Sink.warm > 0) sinks)
  in
  let n = { driver; relay; sink_nodes } in
  if not up then begin
    shutdown n;
    failwith "set-up: probe message did not reach every sink"
  end;
  (n, setup_s)

(* Closed loop: the next send starts as soon as the previous returns
   ([Rnode.send] blocks while the driver's sender buffer is full) and the
   window has room. *)
let drive_closed ?tr n g ~sinks ~pool ~board ~stop_ns =
  let relay = Rnode.id n.relay and origin = Rnode.id n.driver in
  let in_flight s =
    s - Array.fold_left (fun acc k -> min acc (Sink.delivered k)) max_int sinks
  in
  let seq = ref 0 in
  while now_ns () < stop_ns do
    let s = !seq in
    if in_flight s >= window then begin
      Mutex.lock g.lock;
      while in_flight s > low_water do
        Atomic.set g.waiting true;
        (* re-checked after announcing the wait: a sink that delivered
           in between either saw [waiting] or is counted here *)
        if in_flight s > low_water then Condition.wait g.room g.lock
      done;
      Atomic.set g.waiting false;
      Mutex.unlock g.lock
    end;
    let m = Msg.data ~origin ~app ~seq:s (Gen.payload pool ~app ~seq:s) in
    let t0 = now_ns () in
    Sink.sent board ~app ~seq:s ~at:t0;
    Rnode.send n.driver m relay;
    Atomic.set g.sent (s + 1);
    (match tr with
    | None -> ()
    | Some tr ->
      Trace.add tr.r_driver (send_id s) ~t0 ~t1:(now_ns ());
      tr.staged_max <- max tr.staged_max (Rnode.staged_bytes n.driver));
    seq := s + 1
  done;
  !seq

(* Open loop: Poisson arrivals drawn from the seed. Each message is due
   at its scheduled time whether or not earlier sends were slow;
   latency counts from that due time. *)
let drive_paced ?tr n ~rate ~seed ~pass ~pool ~board ~late ~start_ns ~stop_ns =
  let relay = Rnode.id n.relay and origin = Rnode.id n.driver in
  let rng = Random.State.make [| seed; pass; 0xa11 |] in
  let gap () =
    int_of_float (-.Float.log (1. -. Random.State.float rng 1.) /. rate *. 1e9)
  in
  let seq = ref 0 and next = ref (start_ns + gap ()) in
  while !next < stop_ns do
    let s = !seq and d = !next in
    let wait = d - now_ns () in
    if wait > 0 then Thread.delay (float_of_int wait *. 1e-9);
    Sink.sent board ~app ~seq:s ~at:d;
    let m = Msg.data ~origin ~app ~seq:s (Gen.payload pool ~app ~seq:s) in
    let t0 = now_ns () in
    Hist.add late (t0 - d);
    Rnode.send n.driver m relay;
    (match tr with
    | None -> ()
    | Some tr ->
      Trace.add tr.r_driver (send_id s) ~t0 ~t1:(now_ns ());
      tr.staged_max <- max tr.staged_max (Rnode.staged_bytes n.driver));
    seq := s + 1;
    next := d + gap ()
  done;
  !seq

type pass = {
  setup_s : float;
  offered : int;  (** expected deliveries: messages sent x sinks *)
  delivered : int;
  bytes : int;
  wall_s : float;  (** first send to last delivery *)
  cpu_s : float;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;
  lat_p50_ns : float;
  lat_p99_ns : float;
  lat_samples : int;
  late_p99_ns : float;  (** how late the open-loop generator sent *)
  violations : int;
  first_error : string;
  relay_processed : int;
  tel_counters : (string * Metrics.snap) list;
}

(* One measured pass on freshly started nodes. *)
let run_pass ?tel ?tr shape ~seed ~pass ~pool ~inject ~seconds =
  let board = Sink.board ~apps:(app + 1) ~fanout:shape.sinks in
  let sinks =
    Array.init shape.sinks (fun index -> Sink.create ~index ~pool ~board ~inject)
  in
  let g = gate () in
  let n, setup_s = start_nodes ?tel ?tr g sinks in
  let processed0 = Rnode.messages_processed n.relay in
  let late = Hist.create () in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_s () and w0 = alloc_words () in
  let start_ns = now_ns () in
  let stop_ns = start_ns + int_of_float (seconds *. 1e9) in
  let sent =
    match shape.rate with
    | None -> drive_closed ?tr n g ~sinks ~pool ~board ~stop_ns
    | Some rate ->
      drive_paced ?tr n ~rate ~seed ~pass ~pool ~board ~late ~start_ns ~stop_ns
  in
  let offered = sent * shape.sinks in
  let got () = Sink.total Sink.delivered sinks in
  ignore
    (wait_until
       ~deadline_ns:(now_ns () + int_of_float (drain_s *. 1e9))
       (fun () -> got () >= offered));
  let cpu1 = cpu_s () and w1 = alloc_words () in
  let gc1 = Gc.quick_stat () in
  let last = Array.fold_left (fun acc s -> max acc s.Sink.last_ns) start_ns sinks in
  let relay_processed = Rnode.messages_processed n.relay - processed0 in
  shutdown n;
  {
    setup_s;
    offered;
    delivered = got ();
    bytes = Sink.total (fun s -> s.Sink.bytes) sinks;
    wall_s = float_of_int (last - start_ns) *. 1e-9;
    cpu_s = cpu1 -. cpu0;
    alloc_words = w1 -. w0;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
    lat_p50_ns = Hist.percentile board.Sink.lat 0.5;
    lat_p99_ns = Hist.percentile board.Sink.lat 0.99;
    lat_samples = Hist.count board.Sink.lat;
    late_p99_ns = Hist.percentile late 0.99;
    violations = Sink.violations sinks;
    first_error = Sink.first_error sinks;
    relay_processed;
    tel_counters =
      (match tel with Some t -> Metrics.snapshot (Tel.metrics t) | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Reports *)

(* An end-to-end run is one pass per second of the run, each on freshly
   started nodes, plus [setup_only] set-ups with no traffic; each figure
   is the median over passes (set-up time over all set-ups).
   Independent passes keep one unlucky pass of a wake-up-bound workload
   from setting the result. *)
let pass_s = 1.
let setup_only = 4

let end_to_end shape ~seed ~pool ~inject ~seconds =
  let extra =
    List.init setup_only (fun _ ->
        let board = Sink.board ~apps:(app + 1) ~fanout:shape.sinks in
        let sinks =
          Array.init shape.sinks (fun index -> Sink.create ~index ~pool ~board ~inject)
        in
        let n, s = start_nodes (gate ()) sinks in
        shutdown n;
        s)
  in
  let passes = max 1 (int_of_float (Float.round (seconds /. pass_s))) in
  let ps =
    List.init passes (fun pass ->
        run_pass shape ~seed ~pass ~pool ~inject
          ~seconds:(seconds /. float_of_int passes))
  in
  List.iteri
    (fun i p ->
      let d = float_of_int p.delivered in
      Printf.eprintf
        "pass %d: %.0f msg/s, %.2f us cpu/msg, %.1f words/msg, set-up %.2f ms\n" i
        (ratio d p.wall_s) (ratio (p.cpu_s *. 1e6) d) (ratio p.alloc_words d)
        (p.setup_s *. 1e3))
    ps;
  let med f = median (List.map f ps) in
  let total f = float_of_int (List.fold_left (fun acc p -> acc + f p) 0 ps) in
  let ms v = v *. 1e-6 in
  let per_msg f = med (fun p -> ratio (f p) (float_of_int p.delivered)) in
  let metrics =
    [
      ("delivered_msgs_per_s", med (fun p -> ratio (float_of_int p.delivered) p.wall_s));
      ("goodput_MBps", med (fun p -> ratio (float_of_int p.bytes) p.wall_s *. 1e-6));
      ("latency_p50_ms", med (fun p -> ms p.lat_p50_ns));
      ("latency_p99_ms", med (fun p -> ms p.lat_p99_ns));
      ("latency_samples", total (fun p -> p.lat_samples));
      ("cpu_us_per_msg", per_msg (fun p -> p.cpu_s *. 1e6));
      ("alloc_words_per_msg", per_msg (fun p -> p.alloc_words));
      ( "peak_heap_MB",
        float_of_int (List.fold_left (fun acc p -> max acc p.top_heap_words) 0 ps)
        *. 8. *. 1e-6 );
      ("setup_s", median (extra @ List.map (fun p -> p.setup_s) ps));
      ( "loss_ratio",
        ratio (total (fun p -> p.offered - p.delivered)) (total (fun p -> p.offered)) );
    ]
  in
  (ps, metrics)

let counter_sum snap suffix =
  List.fold_left
    (fun acc (name, v) ->
      if String.ends_with ~suffix name then
        match v with
        | Metrics.Counter c -> acc + c
        | Metrics.Histogram h -> acc + h.count
        | Metrics.Gauge _ -> acc
      else acc)
    0 snap

let hist_sum snap suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Histogram h when String.ends_with ~suffix name -> acc + h.sum
      | _ -> acc)
    0 snap

(* Traced run: an untraced pass (the base of the overhead ratio, and the
   CPU and GC shares), then a pass with the program's telemetry on and
   spans at every layer call. *)
let traced shape ~seed ~pool ~inject ~seconds =
  let half = seconds /. 2. in
  let base = run_pass shape ~seed ~pass:0 ~pool ~inject ~seconds:half in
  let tel = Tel.create () in
  let tr =
    {
      r_driver = Trace.recorder ();
      r_relay = Trace.recorder ();
      r_sinks = Array.init shape.sinks (fun _ -> Trace.recorder ());
      staged_max = 0;
    }
  in
  let p = run_pass ~tel ~tr shape ~seed ~pass:1 ~pool ~inject ~seconds:half in
  let recorders = (tr.r_driver :: tr.r_relay :: Array.to_list tr.r_sinks) in
  List.iter Trace.compute_self recorders;
  let sends = Hashtbl.create 4096 and relays = Hashtbl.create 4096 in
  let wait = Hist.create () and hop1 = Hist.create () and hop2 = Hist.create () in
  let proc = Hist.create () in
  let proc_ns = ref 0 in
  List.iter
    (fun s ->
      Hashtbl.replace sends s.Trace.id.seq s;
      Hist.add wait (Trace.dur s))
    (Trace.spans tr.r_driver);
  let add_proc s =
    Hist.add proc (Trace.self s);
    proc_ns := !proc_ns + Trace.self s
  in
  List.iter
    (fun s ->
      Hashtbl.replace relays s.Trace.id.seq s;
      add_proc s;
      match Hashtbl.find_opt sends s.id.seq with
      | Some snd -> Hist.add hop1 (s.t0 - snd.Trace.t1)
      | None -> ())
    (Trace.spans tr.r_relay);
  Array.iter
    (fun r ->
      List.iter
        (fun s ->
          add_proc s;
          match Hashtbl.find_opt relays s.Trace.id.seq with
          | Some rl -> Hist.add hop2 (s.t0 - rl.Trace.t0)
          | None -> ())
        (Trace.spans r))
    tr.r_sinks;
  let snap = p.tel_counters and d = float_of_int p.delivered in
  let us v = v *. 1e-3 and ms v = v *. 1e-6 in
  let metrics =
    [
      ("Rnode.send.wait_us_p50", us (Hist.percentile wait 0.5));
      ("Rnode.send.wait_us_p99", us (Hist.percentile wait 0.99));
      ("Rnode.hop1_ms_p50", ms (Hist.percentile hop1 0.5));
      ("Rnode.hop1_ms_p99", ms (Hist.percentile hop1 0.99));
      ("Rnode.hop2_ms_p50", ms (Hist.percentile hop2 0.5));
      ("Rnode.hop2_ms_p99", ms (Hist.percentile hop2 0.99));
      ("process.cpu_busy_share", ratio base.cpu_s base.wall_s);
      ("Rnode.staged_bytes_max", float_of_int tr.staged_max);
      ( "Rnode.relay_processed_per_msg",
        ratio (float_of_int p.relay_processed) (float_of_int (p.offered / shape.sinks)) );
      ( "onet.syscalls_per_msg",
        ratio (float_of_int (counter_sum snap "onet.syscalls_total")) d );
      ( "onet.batch_bytes_mean",
        ratio
          (float_of_int (hist_sum snap "onet.batch_bytes"))
          (float_of_int (counter_sum snap "onet.batch_bytes")) );
      ("onet.dropped", float_of_int (counter_sum snap ".dropped"));
      ("onet.shed", float_of_int (counter_sum snap ".guard.shed_total"));
      ("Algorithm.process_us_p50", us (Hist.percentile proc 0.5));
      ("Algorithm.busy_share", ratio (float_of_int !proc_ns *. 1e-9) p.wall_s);
      ( "gc.minor_collections_per_kmsg",
        ratio (float_of_int base.minor_gcs *. 1000.) (float_of_int base.delivered) );
      ("gc.major_collections", float_of_int base.major_gcs);
      ( "Telemetry.overhead_ratio",
        ratio (ratio p.wall_s d) (ratio base.wall_s (float_of_int base.delivered)) );
      ("gen.late_p99_ms", ms p.late_p99_ns);
    ]
  in
  ([ base; p ], recorders, metrics)
