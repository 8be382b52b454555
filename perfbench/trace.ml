(* Spans recorded around the benchmark's calls into each layer, in the
   traced pass only. A span is keyed by (layer, node, app, seq) and
   names the span that caused it: a relay's [process] span points at
   the driver's [Rnode.send] of the same message, a sink's at the
   relay's or hub's. Each thread owns one recorder, so recording takes
   no lock. Spans stay in memory and are written out when the run
   ends. *)

type id = { layer : string; node : string; app : int; seq : int }

type span = {
  id : id;
  t0 : int;  (** ns, monotonic *)
  t1 : int;
  parent : id option;
  mutable child_ns : int;  (** time covered by spans nested inside *)
}

type recorder = {
  mutable spans : span list;  (** newest first *)
  mutable n : int;
  mutable dropped : int;
}

(* bounds the memory a long traced pass can take *)
let cap = 200_000
let recorder () = { spans = []; n = 0; dropped = 0 }

let add r ?parent id ~t0 ~t1 =
  if r.n < cap then begin
    r.spans <- { id; t0; t1; parent; child_ns = 0 } :: r.spans;
    r.n <- r.n + 1
  end
  else r.dropped <- r.dropped + 1

let spans r = List.rev r.spans
let dur s = s.t1 - s.t0

(* A span's self time is its duration minus the time of the spans
   nested inside it on the same thread (a [Network.run] span contains
   the callbacks the simulator made during it). *)
let compute_self r =
  let a = Array.of_list r.spans in
  Array.sort
    (fun x y -> if x.t0 <> y.t0 then compare x.t0 y.t0 else compare y.t1 x.t1)
    a;
  let stack = ref [] in
  Array.iter
    (fun s ->
      let rec unwind = function
        | top :: rest when top.t1 < s.t1 -> unwind rest
        | l -> l
      in
      stack := unwind !stack;
      (match !stack with top :: _ -> top.child_ns <- top.child_ns + dur s | [] -> ());
      stack := s :: !stack)
    a

let self s = dur s - s.child_ns

let id_string i = Printf.sprintf "%s/%s/%d/%d" i.layer i.node i.app i.seq

let write_jsonl path recorders =
  let oc = open_out path in
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"layer\":%S,\"node\":%S,\"app\":%d,\"seq\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d,\"parent\":%s}\n"
            s.id.layer s.id.node s.id.app s.id.seq s.t0 s.t1 (self s)
            (match s.parent with
            | Some p -> Printf.sprintf "%S" (id_string p)
            | None -> "null"))
        (spans r))
    recorders;
  close_out oc
