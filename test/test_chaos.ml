(* Tests for the chaos engine: scenario text format, deterministic
   compilation, fault drivers, the invariant checker, and the bundled
   chaos-lab scenarios (including the trace-digest determinism oracle). *)

module Scenario = Iov_chaos.Scenario
module Invariant = Iov_chaos.Invariant
module Driver = Iov_chaos.Driver
module Chaos = Iov_chaos.Chaos
module Chaoslab = Iov_exp.Chaoslab
module Network = Iov_core.Network
module Bwspec = Iov_core.Bwspec
module Alg = Iov_core.Algorithm
module Ialg = Iov_core.Ialgorithm
module NI = Iov_msg.Node_id
module Msg = Iov_msg.Message
module Tel = Iov_telemetry.Telemetry
module Sim = Iov_dsim.Sim
module Source = Iov_algos.Source
module Flood = Iov_algos.Flood
module Rnode = Iov_onet.Rnode

let id i = NI.synthetic i
let app = 1

let flood_node net ?bw i ~ups ~downs =
  let f = Flood.create () in
  Flood.set_route f ~app ~upstreams:(List.map id ups)
    ~downstreams:(List.map id downs) ();
  ignore (Network.add_node net ?bw ~id:(id i) (Flood.algorithm f));
  f

let source_node net ?bw ?payload_size i ~dests =
  let s = Source.create ?payload_size ~app ~dests:(List.map id dests) () in
  ignore (Network.add_node net ?bw ~id:(id i) (Source.algorithm s));
  s

(* ------------------------------------------------------------------ *)
(* Scenario text format *)

let full_scenario =
  {
    Scenario.name = "everything";
    seed = 9;
    faults =
      [
        Scenario.Kill { node = "B"; at = 5. };
        Scenario.Churn
          {
            nodes = [ "*" ];
            pick = Some 3;
            start = 10.;
            stop = 40.;
            down_after = Scenario.Exp 6.;
            up_after = Scenario.Const 4.;
          };
        Scenario.Flap
          {
            src = "A";
            dst = "B";
            start = 8.;
            stop = 20.;
            period = Scenario.Uniform (2., 4.);
            down = Scenario.Const 1.;
          };
        Scenario.Degrade
          { src = "A"; dst = "C"; rate = 51200.; at = 12.; restore = Some 30. };
        Scenario.Loss
          {
            src = "D";
            dst = "E";
            p = 0.2;
            corrupt = 0.05;
            at = 5.;
            clear = Some 25.;
          };
        Scenario.Partition
          { groups = [ [ "A"; "B" ]; [ "C"; "D"; "E" ] ]; at = 15.; heal = Some 22. };
      ];
    expects =
      [
        Scenario.No_delivery_after_teardown { grace = 0.5 };
        Scenario.Domino_completes { within = 2. };
        Scenario.Reconverge { within = 20. };
        Scenario.Throughput_recovers { tol = 0.3; settle = 10.; window = 5. };
        Scenario.Reroute_recovers { ratio = 0.9; within = 5.; window = 2. };
        Scenario.Partition_silent;
        Scenario.Min_events 1000;
      ];
  }

let test_roundtrip () =
  let text = Scenario.to_string full_scenario in
  let back = Scenario.parse text in
  if back <> full_scenario then
    Alcotest.failf "round-trip changed the scenario:\n%s\nvs\n%s" text
      (Scenario.to_string back);
  (* and printing is a fixed point *)
  Alcotest.(check string) "canonical form stable" text
    (Scenario.to_string back)

let test_parse_errors () =
  let bad line text =
    match Scenario.parse text with
    | _ -> Alcotest.failf "parsed malformed input: %S" text
    | exception Scenario.Parse_error (l, _) ->
      Alcotest.(check int) ("error line of " ^ text) line l
  in
  bad 1 "kill node=B at=5";
  (* no scenario header *)
  bad 2 "scenario x seed=1\nkill at=5";
  (* kill without node *)
  bad 2 "scenario x seed=1\nfrobnicate everything";
  bad 3 "scenario x seed=1\nkill node=B at=5\nloss link=AB p=0.5 at=1";
  bad 2 "scenario x seed=1\nexpect min-events many";
  bad 2 "scenario x seed=1\nchurn nodes=A start=4 stop=2 down=exp:1 up=const:1"

let test_comments_and_blanks () =
  let sc =
    Scenario.parse
      "# a comment\n\nscenario c seed=3\n  # indented comment\nkill node=X \
       at=1\n\n"
  in
  Alcotest.(check string) "name" "c" sc.Scenario.name;
  Alcotest.(check int) "one fault" 1 (List.length sc.Scenario.faults)

(* ------------------------------------------------------------------ *)
(* Compilation *)

let test_compile_deterministic () =
  let nodes = [ "A"; "B"; "C"; "D"; "E" ] in
  let a1 = Scenario.compile full_scenario ~nodes in
  let a2 = Scenario.compile full_scenario ~nodes in
  Alcotest.(check bool) "same schedule" true (a1 = a2);
  let a3 =
    Scenario.compile { full_scenario with Scenario.seed = 10 } ~nodes
  in
  Alcotest.(check bool) "seed changes the schedule" true (a1 <> a3);
  (* sorted by time *)
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted a1)

let test_compile_churn_shape () =
  let sc =
    Scenario.parse
      "scenario churny seed=4\n\
       churn nodes=* pick=2 start=10 stop=30 down=exp:5 up=const:3\n"
  in
  let nodes = [ "a"; "b"; "c"; "d" ] in
  let actions = Scenario.compile sc ~nodes in
  let kills =
    List.filter_map
      (function t, Scenario.Kill_node n -> Some (t, n) | _ -> None)
      actions
  in
  let spawns =
    List.filter_map
      (function t, Scenario.Spawn_node n -> Some (t, n) | _ -> None)
      actions
  in
  Alcotest.(check bool) "some kills scheduled" true (List.length kills > 0);
  Alcotest.(check int) "every kill gets a respawn" (List.length kills)
    (List.length spawns);
  List.iter
    (fun (t, n) ->
      Alcotest.(check bool) "victim is a candidate" true (List.mem n nodes);
      Alcotest.(check bool) "kill inside [start,stop)" true
        (t >= 10. && t < 30.))
    kills;
  let victims = List.sort_uniq compare (List.map snd kills) in
  Alcotest.(check bool) "at most pick distinct victims" true
    (List.length victims <= 2);
  (* each victim's timeline alternates kill/spawn *)
  List.iter
    (fun v ->
      let mine =
        List.filter_map
          (function
            | t, Scenario.Kill_node n when n = v -> Some (t, `K)
            | t, Scenario.Spawn_node n when n = v -> Some (t, `S)
            | _ -> None)
          actions
      in
      let rec alternating = function
        | (t1, `K) :: ((t2, `S) :: _ as rest) ->
          t1 < t2 && alternating rest
        | (t1, `S) :: ((t2, `K) :: _ as rest) -> t1 < t2 && alternating rest
        | [ _ ] | [] -> true
        | _ -> false
      in
      Alcotest.(check bool) (v ^ " alternates") true (alternating mine);
      match mine with
      | (_, `K) :: _ -> ()
      | _ -> Alcotest.fail "victim timeline must start with a kill")
    victims

let test_fault_span_and_windows () =
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "empty span" None
    (Scenario.fault_span []);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "span"
    (Some (1., 7.))
    (Scenario.fault_span
       [ (1., Scenario.Kill_node "a"); (7., Scenario.Spawn_node "a") ]);
  match Scenario.partition_windows full_scenario with
  | [ (15., 22., groups) ] ->
    Alcotest.(check int) "two groups" 2 (List.length groups)
  | _ -> Alcotest.fail "expected one partition window"

let test_sample_bounds () =
  let rng = Random.State.make [| 1 |] in
  for _ = 1 to 200 do
    Alcotest.(check (float 0.)) "const" 2.5
      (Scenario.sample rng (Scenario.Const 2.5));
    let u = Scenario.sample rng (Scenario.Uniform (1., 3.)) in
    Alcotest.(check bool) "uniform in range" true (u >= 1. && u <= 3.);
    let e = Scenario.sample rng (Scenario.Exp 4.) in
    Alcotest.(check bool) "exp finite nonneg" true
      (Float.is_finite e && e >= 0.)
  done

(* ------------------------------------------------------------------ *)
(* Drivers *)

let test_threaded_driver_order () =
  let applied = ref [] in
  let t =
    Driver.run_threaded ~speedup:100.
      ~apply:(fun a -> applied := a :: !applied)
      [
        (0.0, Scenario.Kill_node "a");
        (0.5, Scenario.Spawn_node "a");
        (1.0, Scenario.Kill_node "b");
      ]
  in
  Thread.join t;
  match List.rev !applied with
  | [ Scenario.Kill_node "a"; Scenario.Spawn_node "a"; Scenario.Kill_node "b" ]
    ->
    ()
  | l -> Alcotest.failf "unexpected application order (%d actions)"
           (List.length l)

let test_threaded_driver_survives_exceptions () =
  let applied = ref 0 in
  let t =
    Driver.run_threaded ~speedup:100.
      ~apply:(fun a ->
        incr applied;
        match a with Scenario.Kill_node _ -> failwith "boom" | _ -> ())
      [ (0.0, Scenario.Kill_node "a"); (0.3, Scenario.Spawn_node "a") ]
  in
  Thread.join t;
  Alcotest.(check int) "kept going past the failing action" 2 !applied

let test_rnode_kill () =
  let a = Rnode.start Alg.null in
  let b = Rnode.start Alg.null in
  Rnode.connect a (Rnode.id b);
  Rnode.send a
    (Msg.data ~origin:(Rnode.id a) ~app ~seq:0 (Bytes.create 64))
    (Rnode.id b);
  Thread.delay 0.3;
  Alcotest.(check bool) "b processed the message" true
    (Rnode.app_bytes b ~app > 0);
  Rnode.kill b;
  Rnode.kill b;
  (* idempotent *)
  Thread.delay 0.2;
  Rnode.shutdown a

(* ------------------------------------------------------------------ *)
(* Invariant checker *)

let test_min_events_guard () =
  let sc =
    {
      Scenario.name = "idle";
      seed = 0;
      faults = [];
      expects = [ Scenario.Min_events 10 ];
    }
  in
  let report = Invariant.check ~scenario:sc ~actions:[] ~horizon:1. [] in
  Alcotest.(check bool) "empty trace flagged" false (Invariant.ok report);
  Alcotest.(check int) "one violation" 1
    (List.length (Invariant.violations report))

let test_checker_flags_dead_chain () =
  (* killing the middle of a chain cannot reconverge: the checker must
     say so on a scenario that wrongly expects recovery *)
  let sc =
    Scenario.parse
      "scenario dead-chain seed=1\nkill node=n2 at=2\nexpect reconverge \
       within=3\n"
  in
  let o =
    Chaoslab.run ~quiet:true ~until:10. ~workload:(Chaoslab.Flood_chain 3) sc
  in
  Alcotest.(check bool) "violation found" false (Invariant.ok o.Chaoslab.report)

(* ------------------------------------------------------------------ *)
(* The chaos lab: bundled scenarios and the determinism oracle *)

(* The "smoke" builtin's trace digest, pinned so that a change to the
   engines' event stream cannot pass by changing both runs alike. *)
let golden_smoke_digest = "85b0d74e4795770e87e16c4974f1d0be"

let test_builtin_digest_oracle () =
  (* the acceptance criterion: the same scenario against the same seeded
     workload yields a byte-identical telemetry trace *)
  let digest_of () =
    match Chaoslab.run_builtin ~quiet:true "smoke" with
    | Some o -> Tel.digest o.Chaoslab.telemetry
    | None -> Alcotest.fail "smoke builtin missing"
  in
  let d1 = digest_of () in
  let d2 = digest_of () in
  Alcotest.(check string) "byte-identical traces" d1 d2;
  Alcotest.(check string) "pinned digest" golden_smoke_digest d1;
  (* and the seed matters where the workload has randomness *)
  match Chaoslab.run_builtin ~quiet:true ~seed:5 "churn-session" with
  | Some o ->
    let d42 =
      match Chaoslab.run_builtin ~quiet:true "churn-session" with
      | Some o' -> Tel.digest o'.Chaoslab.telemetry
      | None -> Alcotest.fail "builtin missing"
    in
    Alcotest.(check bool) "different seed, different trace" true
      (Tel.digest o.Chaoslab.telemetry <> d42)
  | None -> Alcotest.fail "churn-session builtin missing"

let test_smoke_suite () =
  (* all regular bundled scenarios pass; the deliberately-broken fixture
     is flagged *)
  Alcotest.(check bool) "smoke suite green" true (Chaoslab.smoke ~quiet:true ())

let test_broken_fixture_is_flagged () =
  match Chaoslab.run_builtin ~quiet:true Chaoslab.broken_fixture with
  | Some o ->
    Alcotest.(check bool) "broken oracle caught" false
      (Invariant.ok o.Chaoslab.report)
  | None -> Alcotest.fail "broken fixture missing"

let test_partition_builtin_details () =
  match Chaoslab.run_builtin ~quiet:true "partition-heal" with
  | None -> Alcotest.fail "builtin missing"
  | Some o ->
    Alcotest.(check bool) "expectations hold" true
      (Invariant.ok o.Chaoslab.report);
    (* the trace really contains drops during the partition window *)
    let drops_in_window =
      List.filter
        (fun (e : Tel.event) ->
          e.kind = Iov_telemetry.Event.Drop && e.time > 4. && e.time < 8.)
        (Tel.events o.Chaoslab.telemetry)
    in
    Alcotest.(check bool) "partition blackholed traffic" true
      (List.length drops_in_window > 10)

(* ------------------------------------------------------------------ *)
(* Randomized: any kill set on the diamond topology keeps the Domino
   ordering invariants — no orphaned link delivers after its upstream's
   teardown, and every live consumer learns of the failure. *)

let kills_gen =
  QCheck.Gen.(
    let victim = int_range 2 6 in
    let at = float_range 1. 4. in
    list_size (int_range 1 4) (pair victim at)
    |> map (fun l ->
           (* one kill per victim, stable order *)
           List.fold_left
             (fun acc (i, t) ->
               if List.mem_assoc i acc then acc else (i, t) :: acc)
             [] l
           |> List.rev))

let kills_print l =
  String.concat "; "
    (List.map (fun (i, t) -> Printf.sprintf "kill %d at %.2f" i t) l)

let domino_prop kills =
  let tl = Tel.create () in
  let net = Network.create ~buffer_capacity:4 ~telemetry:tl () in
  let _ = source_node net ~payload_size:512 1 ~dests:[ 2; 3 ] in
  let _ = flood_node net 2 ~ups:[ 1 ] ~downs:[ 4; 6 ] in
  let _ = flood_node net 3 ~ups:[ 1 ] ~downs:[ 4 ] in
  let _ = flood_node net 4 ~ups:[ 2; 3 ] ~downs:[ 5 ] in
  let _ = flood_node net 5 ~ups:[ 4 ] ~downs:[] in
  let _ = flood_node net 6 ~ups:[ 2 ] ~downs:[] in
  let sim = Network.sim net in
  List.iter
    (fun (i, t) ->
      ignore (Sim.schedule_at sim ~time:t (fun () -> Network.kill_node net (id i))))
    kills;
  Network.run net ~until:10.;
  let scenario =
    {
      Scenario.name = "domino-prop";
      seed = 0;
      faults = [];
      expects =
        [
          Scenario.No_delivery_after_teardown { grace = 0.5 };
          Scenario.Domino_completes { within = 2. };
        ];
    }
  in
  let actions =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.map
         (fun (i, t) -> (t, Scenario.Kill_node (string_of_int i)))
         kills)
  in
  let report =
    Invariant.check ~scenario ~actions ~horizon:10. (Tel.events tl)
  in
  if not (Invariant.ok report) then
    QCheck.Test.fail_report (Invariant.to_string report)
  else true

let domino_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"random kill sets keep Domino order"
       (QCheck.make ~print:kills_print kills_gen)
       domino_prop)

let () =
  Alcotest.run "chaos"
    [
      ( "scenario",
        [
          Alcotest.test_case "text round-trip" `Quick test_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick
            test_comments_and_blanks;
        ] );
      ( "compile",
        [
          Alcotest.test_case "deterministic" `Quick test_compile_deterministic;
          Alcotest.test_case "churn shape" `Quick test_compile_churn_shape;
          Alcotest.test_case "span and windows" `Quick
            test_fault_span_and_windows;
          Alcotest.test_case "distribution sampling" `Quick test_sample_bounds;
        ] );
      ( "driver",
        [
          Alcotest.test_case "threaded order" `Quick test_threaded_driver_order;
          Alcotest.test_case "threaded exception safety" `Quick
            test_threaded_driver_survives_exceptions;
          Alcotest.test_case "rnode kill" `Quick test_rnode_kill;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "min-events guard" `Quick test_min_events_guard;
          Alcotest.test_case "flags a dead chain" `Quick
            test_checker_flags_dead_chain;
        ] );
      ( "chaoslab",
        [
          Alcotest.test_case "digest oracle" `Quick test_builtin_digest_oracle;
          Alcotest.test_case "smoke suite" `Quick test_smoke_suite;
          Alcotest.test_case "broken fixture flagged" `Quick
            test_broken_fixture_is_flagged;
          Alcotest.test_case "partition details" `Quick
            test_partition_builtin_details;
        ] );
      ("qcheck", [ domino_qcheck ]);
    ]
