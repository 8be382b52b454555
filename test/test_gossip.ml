(* Tests for the gossip membership subsystem: the central mtype
   registry, SWIM precedence and refutation, the bounded view, and
   whole simulated overlays — observer-free bootstrap, failure
   detection, same-id respawn, seeded determinism, and the routing
   liveness oracle. *)

module Network = Iov_core.Network
module NI = Iov_msg.Node_id
module Mt = Iov_msg.Mtype
module Tel = Iov_telemetry.Telemetry
module Ev = Iov_telemetry.Event
module Swim = Iov_gossip.Swim
module View = Iov_gossip.View
module Gossip = Iov_gossip.Gossip
module Neighbor = Iov_routing.Neighbor
module Gl = Iov_exp.Gossiplab

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let id i = NI.synthetic i
let ids_to_strings l = List.sort NI.compare l |> List.map NI.to_string

(* ------------------------------------------------------------------ *)
(* The central Custom-tag registry *)

let test_registry_roundtrip () =
  let claims = Mt.Registry.all () in
  Alcotest.(check bool) "table populated" true (List.length claims >= 4);
  List.iter
    (fun (tag, owner, name) ->
      (match Mt.of_int (Mt.to_int (Mt.custom tag)) with
      | Mt.Custom n -> Alcotest.(check int) "wire roundtrip" tag n
      | other ->
        Alcotest.failf "Custom %d decoded as %s" tag (Mt.to_string other));
      match Mt.Registry.claimed tag with
      | Some (o, n) ->
        Alcotest.(check (pair string string)) "claim intact" (owner, name)
          (o, n)
      | None -> Alcotest.failf "claim for tag %d vanished" tag)
    claims;
  (* the gossip subsystem's slice, claimed at module initialization *)
  List.iter
    (fun (tag, name) ->
      Alcotest.(check (option (pair string string)))
        name
        (Some ("gossip", name))
        (Mt.Registry.claimed tag))
    [ (112, "ping"); (113, "ack"); (114, "ping-req"); (115, "view") ]

let test_registry_collision () =
  (* re-registering the identical claim is idempotent... *)
  Alcotest.(check int) "idempotent"
    (Mt.to_int Gossip.ping_kind)
    (Mt.to_int (Mt.Registry.register ~owner:"gossip" ~name:"ping" 112));
  (* ...while any differing claim of the same tag is a collision *)
  (match Mt.Registry.register ~owner:"intruder" ~name:"ping" 112 with
  | _ -> Alcotest.fail "foreign owner accepted"
  | exception Invalid_argument _ -> ());
  match Mt.Registry.register ~owner:"gossip" ~name:"pong" 112 with
  | _ -> Alcotest.fail "renamed claim accepted"
  | exception Invalid_argument _ -> ()

let registry_qtests =
  [
    qtest "custom tags survive the wire" QCheck.(int_bound 5000) (fun tag ->
        Mt.of_int (Mt.to_int (Mt.custom tag)) = Mt.custom tag);
  ]

(* ------------------------------------------------------------------ *)
(* SWIM precedence and refutation *)

let test_swim_precedence () =
  let sw = Swim.create ~self:(id 1) () in
  let p = id 2 in
  let apply s i =
    Swim.apply sw ~now:0. { Swim.u_node = p; u_status = s; u_inc = i }
  in
  Alcotest.(check bool) "first sighting" true
    (apply Swim.Alive 0 = Swim.Fresh None);
  Alcotest.(check bool) "same alive is stale" true
    (apply Swim.Alive 0 = Swim.Stale);
  Alcotest.(check bool) "suspect beats alive at equal inc" true
    (apply Swim.Suspect 0 = Swim.Fresh (Some Swim.Alive));
  Alcotest.(check bool) "alive at equal inc cannot clear suspicion" true
    (apply Swim.Alive 0 = Swim.Stale);
  Alcotest.(check bool) "alive at higher inc refutes suspicion" true
    (apply Swim.Alive 1 = Swim.Fresh (Some Swim.Suspect));
  Alcotest.(check bool) "dead beats alive at equal inc" true
    (apply Swim.Dead 1 = Swim.Fresh (Some Swim.Alive));
  Alcotest.(check bool) "suspicion never beats a confirmation" true
    (apply Swim.Suspect 5 = Swim.Stale);
  Alcotest.(check bool) "alive at the dead inc stays dead" true
    (apply Swim.Alive 1 = Swim.Stale);
  Alcotest.(check bool) "respawn at dead_inc + 1 resurrects" true
    (apply Swim.Alive 2 = Swim.Fresh (Some Swim.Dead));
  Alcotest.(check bool) "alive again" true (Swim.is_alive sw p)

let test_swim_refutation () =
  let sw = Swim.create ~self:(id 1) () in
  let r =
    Swim.apply sw ~now:0.
      { Swim.u_node = id 1; u_status = Swim.Suspect; u_inc = 0 }
  in
  Alcotest.(check bool) "defamation refuted" true (r = Swim.Refuted);
  Alcotest.(check int) "incarnation bumped past the claim" 1
    (Swim.self_inc sw);
  (match Swim.piggyback sw ~limit:8 with
  | [ u ] ->
    Alcotest.(check bool) "rebuttal is about self" true
      (NI.equal u.Swim.u_node (id 1));
    Alcotest.(check bool) "rebuttal says alive" true
      (u.Swim.u_status = Swim.Alive);
    Alcotest.(check int) "at the bumped incarnation" 1 u.Swim.u_inc
  | l -> Alcotest.failf "expected one rebuttal, got %d" (List.length l));
  let r =
    Swim.apply sw ~now:0.
      { Swim.u_node = id 1; u_status = Swim.Dead; u_inc = 1 }
  in
  Alcotest.(check bool) "death claim refuted too" true (r = Swim.Refuted);
  Alcotest.(check int) "bumped again" 2 (Swim.self_inc sw)

let test_swim_transmit_budget () =
  let sw = Swim.create ~self:(id 1) () in
  ignore
    (Swim.apply sw ~now:0.
       { Swim.u_node = id 2; u_status = Swim.Alive; u_inc = 0 });
  let budget = Swim.transmit_budget sw in
  for ride = 1 to budget do
    Alcotest.(check int)
      (Printf.sprintf "ride %d still out" ride)
      1
      (List.length (Swim.piggyback sw ~limit:8))
  done;
  Alcotest.(check int) "retired past the budget" 0
    (List.length (Swim.piggyback sw ~limit:8));
  Alcotest.(check int) "queue drained" 0 (Swim.queue_length sw)

(* ------------------------------------------------------------------ *)
(* The bounded partial view *)

let test_view_bounded () =
  let rng = Random.State.make [| 7 |] in
  let vw = View.create ~capacity:16 ~self:(id 1) () in
  for i = 2 to 101 do
    View.add vw ~rng (id i)
  done;
  Alcotest.(check int) "capacity respected" 16 (View.size vw);
  Alcotest.(check bool) "self never cached" false (View.mem vw (id 1));
  let ps = View.peers vw in
  Alcotest.(check int) "descriptors distinct" (List.length ps)
    (List.length (List.sort_uniq NI.compare ps))

let test_view_shuffle_out () =
  let rng = Random.State.make [| 7 |] in
  let vw = View.create ~capacity:16 ~self:(id 1) () in
  for i = 2 to 20 do
    View.add vw ~rng (id i)
  done;
  let out = View.shuffle_out vw ~rng ~size:8 ~exclude:(id 2) in
  Alcotest.(check bool) "self rides first" true
    (NI.equal (List.hd out) (id 1));
  Alcotest.(check bool) "bounded by size" true (List.length out <= 8);
  Alcotest.(check bool) "partner excluded" false
    (List.exists (NI.equal (id 2)) out)

(* ------------------------------------------------------------------ *)
(* Whole simulated overlays *)

let observer_bytes net =
  List.fold_left
    (fun acc mt -> acc + Network.control_bytes_sent_all net mt)
    0
    [ Mt.Boot; Mt.Boot_reply; Mt.Request; Mt.Status ]

let test_bootstrap_without_observer () =
  let b = Gl.build ~seed:5 ~n:12 () in
  Network.run b.Gl.b_net ~until:6.;
  let expected = ids_to_strings (Array.to_list b.Gl.b_ids) in
  Array.iteri
    (fun i g ->
      match g with
      | Some g ->
        Alcotest.(check (list string))
          (Printf.sprintf "n%d sees the full membership" i)
          expected
          (ids_to_strings (Gossip.alive g))
      | None -> Alcotest.failf "n%d missing" i)
    b.Gl.b_gossips;
  Alcotest.(check int) "zero observer traffic" 0 (observer_bytes b.Gl.b_net)

let test_kill_suspect_confirm () =
  let tel = Tel.create () in
  let b = Gl.build ~seed:11 ~telemetry:tel ~n:12 () in
  Network.run b.Gl.b_net ~until:4.;
  let victim = b.Gl.b_ids.(7) in
  Network.kill_node b.Gl.b_net victim;
  Network.run b.Gl.b_net ~until:14.;
  Array.iteri
    (fun i g ->
      match g with
      | Some g when not (NI.equal (Gossip.self g) victim) ->
        Alcotest.(check bool)
          (Printf.sprintf "n%d dropped the victim" i)
          false
          (Gossip.is_alive g victim)
      | _ -> ())
    b.Gl.b_gossips;
  let about k e =
    e.Tel.kind = k
    && match e.Tel.peer with Some p -> NI.equal p victim | None -> false
  in
  let evs = Tel.events tel in
  Alcotest.(check bool) "a suspect event was recorded" true
    (List.exists (about Ev.Suspect) evs);
  Alcotest.(check bool) "a confirm event was recorded" true
    (List.exists (about Ev.Confirm) evs)

let test_respawn_rejoins_at_higher_incarnation () =
  let b = Gl.build ~seed:3 ~n:10 () in
  Network.run b.Gl.b_net ~until:4.;
  let victim = b.Gl.b_ids.(4) in
  Network.kill_node b.Gl.b_net victim;
  (* long enough for the death to be confirmed overlay-wide *)
  Network.run b.Gl.b_net ~until:12.;
  (match b.Gl.b_gossips.(0) with
  | Some g ->
    Alcotest.(check bool) "death learned before respawn" false
      (Gossip.is_alive g victim)
  | None -> Alcotest.fail "seed gossip missing");
  b.Gl.b_spawn "n4";
  Network.run b.Gl.b_net ~until:24.;
  Array.iteri
    (fun i g ->
      match g with
      | Some g ->
        Alcotest.(check bool)
          (Printf.sprintf "n%d sees the respawn alive" i)
          true
          (Gossip.is_alive g victim)
      | None -> Alcotest.failf "n%d missing" i)
    b.Gl.b_gossips;
  (* the stale death rumor lost to a strictly higher incarnation *)
  match
    b.Gl.b_gossips.(0)
    |> Option.map (fun g -> Swim.status_of (Gossip.swim g) victim)
  with
  | Some (Some (Swim.Alive, inc)) ->
    Alcotest.(check bool) "incarnation above the recorded death" true
      (inc >= 1)
  | Some (Some (st, _)) ->
    Alcotest.failf "respawn still %s" (Swim.status_to_string st)
  | Some None | None -> Alcotest.fail "respawn unknown at the seed"

let digest_of_run seed =
  let tel = Tel.create () in
  let b = Gl.build ~seed ~telemetry:tel ~n:10 () in
  Network.run b.Gl.b_net ~until:3.;
  Network.kill_node b.Gl.b_net b.Gl.b_ids.(6);
  Network.run b.Gl.b_net ~until:10.;
  Tel.digest tel

(* [digest_of_run 21], pinned: two runs of one build agreeing cannot
   show that the event stream itself stayed the same *)
let golden_run21_digest = "6cab6c4e5ba56408c94754821627ddd1"

let test_seeded_determinism () =
  let d = digest_of_run 21 in
  Alcotest.(check string) "same seed, identical telemetry" d (digest_of_run 21);
  Alcotest.(check string) "pinned digest" golden_run21_digest d

(* ------------------------------------------------------------------ *)
(* The routing liveness oracle *)

let test_neighbor_consumes_gossip_liveness () =
  let nb = Neighbor.create ~self:(id 1) () in
  let peer = Neighbor.create ~self:(id 2) () in
  ignore (Neighbor.on_hello nb ~now:0.1 (Neighbor.hello peer ~now:0.));
  Alcotest.(check bool) "peer learned from hello" true
    (Neighbor.is_peer nb (id 2));
  let sw = Swim.create ~self:(id 1) () in
  ignore
    (Swim.apply sw ~now:0.
       { Swim.u_node = id 2; u_status = Swim.Alive; u_inc = 0 });
  Neighbor.set_liveness nb (fun p -> Swim.is_alive sw p);
  Alcotest.(check (list string)) "fresh hello plus alive verdict holds" []
    (List.map NI.to_string (Neighbor.expire nb ~now:0.2));
  ignore
    (Swim.apply sw ~now:0.
       { Swim.u_node = id 2; u_status = Swim.Dead; u_inc = 0 });
  (* the gossip verdict condemns the peer ahead of the hello timeout *)
  Alcotest.(check (list string)) "condemned immediately"
    (List.map NI.to_string [ id 2 ])
    (List.map NI.to_string (Neighbor.expire nb ~now:0.3));
  Alcotest.(check bool) "gone from the table" false
    (Neighbor.is_peer nb (id 2))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gossip"
    [
      ( "registry",
        [
          Alcotest.test_case "every claim roundtrips" `Quick
            test_registry_roundtrip;
          Alcotest.test_case "collisions rejected" `Quick
            test_registry_collision;
        ]
        @ registry_qtests );
      ( "swim",
        [
          Alcotest.test_case "status precedence" `Quick test_swim_precedence;
          Alcotest.test_case "self refutation" `Quick test_swim_refutation;
          Alcotest.test_case "transmit budget" `Quick
            test_swim_transmit_budget;
        ] );
      ( "view",
        [
          Alcotest.test_case "bounded and self-free" `Quick test_view_bounded;
          Alcotest.test_case "shuffle sample" `Quick test_view_shuffle_out;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "observer-free bootstrap" `Quick
            test_bootstrap_without_observer;
          Alcotest.test_case "kill, suspect, confirm" `Quick
            test_kill_suspect_confirm;
          Alcotest.test_case "same-id respawn rejoins" `Quick
            test_respawn_rejoins_at_higher_incarnation;
          Alcotest.test_case "seeded determinism" `Quick
            test_seeded_determinism;
        ] );
      ( "routing",
        [
          Alcotest.test_case "neighbor liveness oracle" `Quick
            test_neighbor_consumes_gossip_liveness;
        ] );
    ]
