(* Entry point of the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--inject drop|corrupt]

   With --trace 0 the last line of stdout is a JSON object carrying the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics
   of a traced run, and the spans are written under perfbench/out. A
   human-readable summary goes to stderr. Exits 1 when a correctness
   check fails. *)

open Util

let end_to_end_units =
  [
    ("delivered_msgs_per_s", "msg/s");
    ("goodput_MBps", "MB/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("cpu_us_per_msg", "us");
    ("alloc_words_per_msg", "words");
    ("peak_heap_MB", "MB");
    ("setup_s", "s");
  ]

(* A layer a workload does not exercise reports 0. *)
let per_layer_units =
  [
    ("Rnode.send.wait_us_p50", "us");
    ("Rnode.send.wait_us_p99", "us");
    ("Rnode.hop1_ms_p50", "ms");
    ("Rnode.hop1_ms_p99", "ms");
    ("Rnode.hop2_ms_p50", "ms");
    ("Rnode.hop2_ms_p99", "ms");
    ("process.cpu_busy_share", "ratio");
    ("Rnode.staged_bytes_max", "bytes");
    ("Rnode.relay_processed_per_msg", "ratio");
    ("onet.syscalls_per_msg", "count");
    ("onet.batch_bytes_mean", "bytes");
    ("onet.dropped", "count");
    ("onet.shed", "count");
    ("Codec.encode_ns_per_msg", "ns");
    ("Codec.stream_decode_ns_per_msg", "ns");
    ("Batcher.stage_flush_ns_per_msg", "ns");
    ("Squeue.handoff_ns_per_msg", "ns");
    ("Algorithm.process_us_p50", "us");
    ("Algorithm.busy_share", "ratio");
    ("Network.self_ns_per_msg", "ns");
    ("Network.hub_backlog_max", "count");
    ("Sim.events_per_msg", "count");
    ("Sim.ns_per_event", "ns");
    ("gc.minor_collections_per_kmsg", "count");
    ("gc.major_collections", "count");
    ("Telemetry.overhead_ratio", "ratio");
    ("gen.late_p99_ms", "ms");
  ]

type workload = Sock of Sock.shape | Simhub

let workloads =
  [
    ("sock-chain-64", Sock { Sock.payload = 64; sinks = 1; rate = None });
    ("sock-fanout-16k", Sock { Sock.payload = 16384; sinks = 2; rate = None });
    ("sock-paced-1k", Sock { Sock.payload = 1024; sinks = 1; rate = Some 1000. });
    ("sim-hub-8x8", Simhub);
  ]

let pool_size = 64

type result = {
  attempted : int;
  delivered : int;
  violations : int;
  first_error : string;
  metrics : (string * float) list;
  recorders : Trace.recorder list;
  inputs : string;  (** a digest of the generated inputs, for the self-test *)
}

let run_sock shape ~seed ~seconds ~trace ~inject =
  let pool = Gen.pool ~seed ~size:shape.Sock.payload ~count:pool_size in
  let passes, recorders, metrics =
    if trace then begin
      let passes, recorders, metrics = Sock.traced shape ~seed ~pool ~inject ~seconds in
      let replay = Trace.recorder () in
      let kernels =
        Replay.run replay ~pool ~app:Sock.app ~origin:(Iov_msg.Node_id.synthetic 1)
      in
      (passes, replay :: recorders, metrics @ kernels)
    end
    else
      let ps, metrics = Sock.end_to_end shape ~seed ~pool ~inject ~seconds in
      (ps, [], metrics)
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  {
    attempted = sum (fun p -> p.Sock.offered);
    delivered = sum (fun p -> p.Sock.delivered);
    violations = sum (fun p -> p.Sock.violations);
    first_error =
      List.fold_left
        (fun acc p -> if acc = "" then p.Sock.first_error else acc)
        "" passes;
    metrics;
    recorders;
    inputs = string_of_int (Gen.digest pool);
  }

let run_sim ~seed ~seconds ~trace ~inject =
  let pool = Gen.pool ~seed ~size:Simhub.payload ~count:pool_size in
  let o, recorders, metrics =
    if trace then begin
      let o, recorders, metrics = Simhub.traced ~seed ~pool ~inject ~seconds in
      let replay = Trace.recorder () in
      let kernels =
        Replay.run replay ~pool ~app:1 ~origin:(Simhub.source_id 0)
      in
      (o, replay :: recorders, metrics @ kernels)
    end
    else
      let o, metrics = Simhub.end_to_end ~seed ~pool ~inject ~seconds in
      (o, [], metrics)
  in
  let r = List.hd o.Simhub.reps in
  {
    attempted = o.offered;
    delivered = o.delivered;
    violations = o.violations;
    first_error = o.first_error;
    metrics;
    recorders;
    inputs =
      Printf.sprintf "%d sent=%d delivered=%d events=%d" (Gen.digest pool)
        r.Simhub.sent r.delivered r.events;
  }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let inject = ref Sink.No_inject in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ( "--inject",
        Arg.Symbol
          ( [ "drop"; "corrupt" ],
            fun s -> inject := if s = "drop" then Sink.Drop else Sink.Corrupt ),
        " make sink 0 drop or corrupt one message (self-test)" );
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* a wedged runtime must not hang the benchmark *)
  let limit = Float.min 170. ((3. *. !seconds) +. 40.) in
  ignore
    (Thread.create
       (fun () ->
         Thread.delay limit;
         Printf.eprintf "perfbench: no result after %.0f s, giving up\n%!" limit;
         Unix._exit 3)
       ());
  let traced = !trace = 1 in
  let r =
    match w with
    | Sock shape -> run_sock shape ~seed:!seed ~seconds:!seconds ~trace:traced ~inject:!inject
    | Simhub -> run_sim ~seed:!seed ~seconds:!seconds ~trace:traced ~inject:!inject
  in
  if traced then begin
    let dir = Filename.concat "perfbench" "out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" !workload !seed) in
    Trace.write_jsonl path r.recorders;
    let dropped = List.fold_left (fun acc t -> acc + t.Trace.dropped) 0 r.recorders in
    Printf.eprintf "spans: %d written to %s (%d over the cap, not kept)\n"
      (List.fold_left (fun acc t -> acc + t.Trace.n) 0 r.recorders)
      path dropped
  end;
  let correct = r.violations = 0 in
  let failed = min r.attempted (r.attempted - r.delivered + r.violations) in
  let units = if traced then per_layer_units else end_to_end_units in
  Printf.eprintf "workload %s seed %d trace %d: inputs %s\n" !workload !seed !trace r.inputs;
  List.iter (fun (k, v) -> Printf.eprintf "  %-34s %s\n" k (json_number v)) r.metrics;
  Printf.eprintf "  attempted %d delivered %d violations %d\n" r.attempted r.delivered
    r.violations;
  if not correct then Printf.eprintf "CORRECTNESS VIOLATION: %s\n" r.first_error;
  let fields =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name r.metrics) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      units
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.attempted) failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
