(* The simulator workload: eight back-to-back 1 KiB sources feed one
   [Flood] hub that copies every message to eight sinks, on a default
   [Network]. The hub has eight in-links (weighted round-robin) and
   eight out-links (remaining-sender retry). Sources stop at a fixed
   simulated horizon and the network then drains, so every generated
   message must reach every sink. A run repeats the same seeded
   simulation until its time is spent; every repetition must produce
   exactly the same delivery and event counts.

   The sources are the benchmark's own, like the sockets driver: they
   follow the stock [Source]'s back-to-back rule (emit while [can_send],
   on start and on [on_ready]) but advance their cursor before [send],
   which may call [on_ready] again before it returns. *)

open Util
module Network = Iov_core.Network
module Alg = Iov_core.Algorithm
module Msg = Iov_msg.Message
module Mt = Iov_msg.Mtype
module NI = Iov_msg.Node_id
module Sim = Iov_dsim.Sim
module Flood = Iov_algos.Flood
module Tel = Iov_telemetry.Telemetry

let n_sources = 8
let n_sinks = 8
let payload = 1024

(* simulated seconds of generation, then of drain *)
let horizon = 1.0
let drain = 0.5

(* the traced repetition samples the hub's backlog this often (simulated) *)
let probe_period = 0.0005

let source_id i = NI.synthetic (1 + i)
let hub_id = NI.synthetic 100
let sink_id i = NI.synthetic (200 + i)

type tracing = {
  rec_ : Trace.recorder;  (** the simulator is single-threaded *)
  mutable run_seq : int;
  mutable backlog_max : int;
  mutable probes : int;
}

let run_span tr = { Trace.layer = "Network.run"; node = "net"; app = 0; seq = tr.run_seq }
let hub_span ~app ~seq = { Trace.layer = "Algorithm.process"; node = "hub"; app; seq }


let sink_algorithm ?tr sink =
  Alg.make ~name:"bench-sink" (fun _ m ->
      if m.Msg.mtype = Mt.Data then begin
        let t0 = now_ns () in
        Sink.deliver sink ~now:t0 ~app:m.Msg.app ~seq:m.Msg.seq
          m.Msg.payload;
        match tr with
        | None -> ()
        | Some tr ->
          Trace.add tr.rec_
            ~parent:(hub_span ~app:m.Msg.app ~seq:m.Msg.seq)
            { Trace.layer = "Algorithm.process";
              node = Printf.sprintf "sink%d" sink.Sink.index;
              app = m.Msg.app; seq = m.Msg.seq }
            ~t0 ~t1:(now_ns ())
      end;
      Alg.Consume)

let traced_hub tr (alg : Alg.t) =
  {
    alg with
    Alg.process =
      (fun ctx m ->
        if m.Msg.mtype = Mt.Data then begin
          let t0 = now_ns () in
          let v = alg.Alg.process ctx m in
          Trace.add tr.rec_ ~parent:(run_span tr)
            (hub_span ~app:m.Msg.app ~seq:m.Msg.seq)
            ~t0 ~t1:(now_ns ());
          v
        end
        else alg.Alg.process ctx m);
  }

type source = { mutable running : bool; mutable sent : int }

let source_algorithm src ~app ~pool ~board =
  let rec pump (ctx : Alg.ctx) =
    if src.running && ctx.can_send hub_id then begin
      let seq = src.sent in
      src.sent <- seq + 1;
      Sink.sent board ~app ~seq ~at:(now_ns ());
      ctx.send (Msg.data ~origin:ctx.self ~app ~seq (Gen.payload pool ~app ~seq)) hub_id;
      pump ctx
    end
  in
  Alg.make ~name:"bench-source" ~on_start:pump
    ~on_ready:(fun ctx _ -> pump ctx)
    (fun _ _ -> Alg.Consume)

type rep = {
  build_s : float;
  run_s : float;
  cpu_s : float;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  sent : int;  (** messages generated by the sources *)
  delivered : int;
  bytes : int;
  events : int;
  lat_p50_ns : float;
  lat_p99_ns : float;
  streams : int list list;  (** per sink, the next expected seq per app *)
  violations : int;
  first_error : string;
}

let build ?tel ?tr ~seed ~pool ~board sinks =
  let net = Network.create ~seed ?telemetry:tel () in
  let sources = List.init n_sources (fun _ -> { running = true; sent = 0 }) in
  let flood = Flood.create () in
  let sink_ids = List.init n_sinks sink_id in
  List.iteri
    (fun i _ ->
      Flood.set_route flood ~app:(i + 1) ~upstreams:[ source_id i ]
        ~downstreams:sink_ids ())
    sources;
  let hub_alg =
    match tr with
    | None -> Flood.algorithm flood
    | Some tr -> traced_hub tr (Flood.algorithm flood)
  in
  ignore (Network.add_node net ~id:hub_id hub_alg);
  Array.iteri
    (fun i s -> ignore (Network.add_node net ~id:(sink_id i) (sink_algorithm ?tr s)))
    sinks;
  List.iteri
    (fun i src ->
      let app = i + 1 in
      ignore
        (Network.add_node net ~id:(source_id i)
           (source_algorithm src ~app ~pool ~board)))
    sources;
  ignore
    (Sim.schedule_at (Network.sim net) ~time:horizon (fun () ->
         List.iter (fun s -> s.running <- false) sources));
  (net, sources)

(* [board] is reused across repetitions *)
let one_rep ?tel ?tr ~seed ~pool ~inject ~board () =
  Gc.full_major ();
  Hist.reset board.Sink.lat;
  let sinks =
    Array.init n_sinks (fun index -> Sink.create ~index ~pool ~board ~inject)
  in
  let b0 = now_ns () in
  let net, sources = build ?tel ?tr ~seed ~pool ~board sinks in
  let build_s = float_of_int (now_ns () - b0) *. 1e-9 in
  (match tr with
  | None -> ()
  | Some tr ->
    ignore
      (Sim.every (Network.sim net) ~period:probe_period (fun () ->
           tr.probes <- tr.probes + 1;
           tr.backlog_max <- max tr.backlog_max (Network.node_backlog net hub_id))));
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_s () and w0 = alloc_words () in
  let t0 = now_ns () in
  Network.run net ~until:(horizon +. drain);
  let t1 = now_ns () in
  let cpu1 = cpu_s () and w1 = alloc_words () in
  let gc1 = Gc.quick_stat () in
  (match tr with
  | None -> ()
  | Some tr ->
    Trace.add tr.rec_ (run_span tr) ~t0 ~t1;
    tr.run_seq <- tr.run_seq + 1);
  {
    build_s;
    run_s = float_of_int (t1 - t0) *. 1e-9;
    cpu_s = cpu1 -. cpu0;
    alloc_words = w1 -. w0;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    sent = List.fold_left (fun acc (s : source) -> acc + s.sent) 0 sources;
    delivered = Sink.total Sink.delivered sinks;
    bytes = Sink.total (fun s -> s.Sink.bytes) sinks;
    events = Sim.events_fired (Network.sim net);
    lat_p50_ns = Hist.percentile board.Sink.lat 0.5;
    lat_p99_ns = Hist.percentile board.Sink.lat 0.99;
    streams = Array.to_list (Array.map (fun s -> Array.to_list s.Sink.expect) sinks);
    violations = Sink.violations sinks;
    first_error = Sink.first_error sinks;
  }

(* The exact outcome of a repetition, which every repetition of one seed
   must reproduce. *)
let counts r = (r.sent, r.delivered, r.events, r.streams)

type outcome = {
  reps : rep list;
  offered : int;
  delivered : int;
  violations : int;
  first_error : string;
}

(* Repeats until [seconds] are spent (at least [min_reps] times). *)
let repeat ~seed ~pool ~inject ~board ~seconds ~min_reps () =
  let stop = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min_reps && now_ns () >= stop then List.rev acc
    else go (one_rep ~seed ~pool ~inject ~board () :: acc) (n + 1)
  in
  go [] 0

let check reps =
  match reps with
  | [] -> invalid_arg "Simhub.check"
  | first :: _ ->
    let ref_counts = counts first in
    let mismatch = List.exists (fun r -> counts r <> ref_counts) reps in
    let violations = List.fold_left (fun acc (r : rep) -> acc + r.violations) 0 reps in
    let first_error =
      if mismatch then "repetitions of one seed disagree on delivery or event counts"
      else List.fold_left (fun acc (r : rep) -> if acc = "" then r.first_error else acc) "" reps
    in
    {
      reps;
      offered = List.fold_left (fun acc r -> acc + (r.sent * n_sinks)) 0 reps;
      delivered = List.fold_left (fun acc (r : rep) -> acc + r.delivered) 0 reps;
      violations = violations + (if mismatch then 1 else 0);
      first_error;
    }

(* Other tenants of the shared host contend for memory for seconds at a
   time, so repetition rates within one run swing between about 0.45M
   and 0.8M msg/s, and the share of fast repetitions changes from run to
   run. Every run contains the contended mode, so a timed figure is the
   median over the slowest quarter of repetitions, ranked by rate. The
   exception is the 99th percentile delay: a repetition is often slow
   because a pause hit some of its messages, so the slowest quarter
   gathers exactly the repetitions whose tail a pause set; it is the
   median over all repetitions. Counts are the same in every
   repetition. *)
let slowest_quarter reps =
  let rate (r : rep) = float_of_int r.delivered /. r.run_s in
  let sorted = List.sort (fun a b -> compare (rate a) (rate b)) reps in
  List.filteri (fun i _ -> i < max 1 (List.length reps / 4)) sorted

let end_to_end ~seed ~pool ~inject ~seconds =
  let board = Sink.board ~apps:(n_sources + 1) ~fanout:n_sinks in
  let o = check (repeat ~seed ~pool ~inject ~board ~seconds ~min_reps:5 ()) in
  let slow = slowest_quarter o.reps in
  let med f = median (List.map f slow) in
  let d (r : rep) = float_of_int r.delivered in
  let ms v = v *. 1e-6 in
  let gc = Gc.quick_stat () in
  let metrics =
    [
      ("delivered_msgs_per_s", med (fun r -> ratio (d r) r.run_s));
      ("goodput_MBps", med (fun r -> ratio (float_of_int r.bytes) r.run_s *. 1e-6));
      ("latency_p50_ms", med (fun r -> ms r.lat_p50_ns));
      ("latency_p99_ms", median (List.map (fun r -> ms r.lat_p99_ns) o.reps));
      ("latency_samples", float_of_int (List.length o.reps * Hist.count board.Sink.lat));
      ("cpu_us_per_msg", med (fun r -> ratio (r.cpu_s *. 1e6) (d r)));
      ("alloc_words_per_msg", median (List.map (fun r -> ratio r.alloc_words (d r)) o.reps));
      ("peak_heap_MB", float_of_int gc.Gc.top_heap_words *. 8. *. 1e-6);
      ("setup_s", median (List.map (fun r -> r.build_s) o.reps));
      ( "loss_ratio",
        ratio (float_of_int (o.offered - o.delivered)) (float_of_int o.offered) );
    ]
  in
  (o, metrics)

(* Traced run: untraced repetitions for the base, then one repetition
   with the program's telemetry on, spans around the hub and sink
   callbacks and [Network.run], and a backlog probe on the sim clock. *)
let traced ~seed ~pool ~inject ~seconds =
  let board = Sink.board ~apps:(n_sources + 1) ~fanout:n_sinks in
  let o =
    check (repeat ~seed ~pool ~inject ~board ~seconds:(seconds /. 2.) ~min_reps:3 ())
  in
  let base = List.hd o.reps in
  let tr = { rec_ = Trace.recorder (); run_seq = 0; backlog_max = 0; probes = 0 } in
  let t = one_rep ~tel:(Tel.create ()) ~tr ~seed ~pool ~inject ~board () in
  Trace.compute_self tr.rec_;
  (* the probe's own firings are the only events tracing adds *)
  let traced_counts =
    let sent, delivered, events, streams = counts t in
    (sent, delivered, events - tr.probes, streams)
  in
  let o =
    {
      o with
      offered = o.offered + (t.sent * n_sinks);
      delivered = o.delivered + t.delivered;
      violations = o.violations + t.violations;
      first_error = (if o.first_error = "" then t.first_error else o.first_error);
    }
  in
  let o =
    if traced_counts = counts base then o
    else
      { o with
        violations = o.violations + 1;
        first_error = "the traced repetition changed delivery or event counts" }
  in
  let proc = Hist.create () in
  let cb_ns = ref 0 and run_self = ref 0 in
  List.iter
    (fun s ->
      if s.Trace.id.layer = "Network.run" then run_self := !run_self + Trace.self s
      else begin
        Hist.add proc (Trace.self s);
        cb_ns := !cb_ns + Trace.self s
      end)
    (Trace.spans tr.rec_);
  let d (r : rep) = float_of_int r.delivered in
  let med f = median (List.map f o.reps) in
  let metrics =
    [
      ("Algorithm.process_us_p50", Hist.percentile proc 0.5 *. 1e-3);
      ("Algorithm.busy_share", ratio (float_of_int !cb_ns *. 1e-9) t.run_s);
      ("Network.self_ns_per_msg", ratio (float_of_int !run_self) (d t));
      ("Network.hub_backlog_max", float_of_int tr.backlog_max);
      ("Sim.events_per_msg", ratio (float_of_int base.events) (d base));
      ("Sim.ns_per_event", med (fun r -> ratio (r.run_s *. 1e9) (float_of_int r.events)));
      ("process.cpu_busy_share", med (fun r -> ratio r.cpu_s r.run_s));
      ("gc.minor_collections_per_kmsg", med (fun r -> ratio (float_of_int r.minor_gcs *. 1000.) (d r)));
      ("gc.major_collections", med (fun r -> float_of_int r.major_gcs));
      ( "Telemetry.overhead_ratio",
        ratio (ratio t.run_s (d t)) (med (fun r -> ratio r.run_s (d r))) );
    ]
  in
  (o, [ tr.rec_ ], metrics)
