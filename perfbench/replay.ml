(* Layer replay kernels (traced pass only): the workload's own generated
   messages fed straight through the public calls of one layer at a
   time, with no sockets or threads around them.

   - Codec: [encode_into] back to back into one buffer;
   - Codec.Stream: the encoded bytes fed in 64 KiB reads through
     [reserve]/[commit], drained with [next];
   - Batcher: [add] with a [flush] into a writer that accepts every
     byte whenever the staging buffer fills, and at the end;
   - Squeue: runs of a default-sized buffer's capacity through
     [push_list] and [pop_batch].

   Each kernel repeats for a fixed time budget; a repetition is one
   span, and the kernel's figure is the median nanoseconds per message
   over repetitions. *)

open Util
module Msg = Iov_msg.Message
module Codec = Iov_msg.Codec
module Batcher = Iov_onet.Batcher
module Squeue = Iov_onet.Squeue

let n_msgs = 256
let read_size = 65536
let queue_capacity = 16

(* each kernel gets this much time; one repetition lasts at least
   [min_rep_ns] *)
let budget_ns = 300_000_000
let min_rep_ns = 2_000_000

let kernel rec_ ~layer ~app f =
  let once () =
    let t0 = now_ns () in
    f ();
    now_ns () - t0
  in
  let iters = max 1 (min_rep_ns / max 1 (once ())) in
  let stop = now_ns () + budget_ns in
  let samples = ref [] and rep = ref 0 in
  while now_ns () < stop || !rep < 3 do
    let t0 = now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    let t1 = now_ns () in
    Trace.add rec_ { Trace.layer; node = "replay"; app; seq = !rep } ~t0 ~t1;
    samples := (float_of_int (t1 - t0) /. float_of_int (iters * n_msgs)) :: !samples;
    incr rep
  done;
  median !samples

let run rec_ ~pool ~app ~origin =
  let msgs =
    Array.init n_msgs (fun seq -> Msg.data ~origin ~app ~seq (Gen.payload pool ~app ~seq))
  in
  let total = Array.fold_left (fun acc m -> acc + Msg.size m) 0 msgs in
  let wire = Bytes.create total in
  let encode () =
    ignore
      (Array.fold_left (fun off m -> off + Codec.encode_into m wire off) 0 msgs)
  in
  encode ();
  let stream = Codec.Stream.create () in
  let decode () =
    let off = ref 0 and got = ref 0 in
    while !off < total do
      let len = min read_size (total - !off) in
      let buf, boff = Codec.Stream.reserve stream len in
      Bytes.blit wire !off buf boff len;
      Codec.Stream.commit stream len;
      off := !off + len;
      let rec drain () =
        match Codec.Stream.next stream with
        | Some _ -> incr got; drain ()
        | None -> ()
      in
      drain ()
    done;
    if !got <> n_msgs then failwith "replay: stream decode lost messages"
  in
  let batch = Batcher.standalone () in
  let null_write _ _ len = len in
  let stage () =
    Array.iter
      (fun m ->
        if not (Batcher.add batch m) then begin
          ignore (Batcher.flush batch ~write:null_write);
          if not (Batcher.add batch m) then failwith "replay: message exceeds staging buffer"
        end)
      msgs;
    ignore (Batcher.flush batch ~write:null_write)
  in
  let q = Squeue.create ~capacity:queue_capacity in
  let runs =
    List.init (n_msgs / queue_capacity) (fun i ->
        Array.to_list (Array.sub msgs (i * queue_capacity) queue_capacity))
  in
  let handoff () =
    List.iter
      (fun run ->
        ignore (Squeue.push_list q run);
        ignore (Squeue.pop_batch q ~max:queue_capacity))
      runs
  in
  [
    ("Codec.encode_ns_per_msg", kernel rec_ ~layer:"Codec.encode_into" ~app encode);
    ("Codec.stream_decode_ns_per_msg", kernel rec_ ~layer:"Codec.Stream" ~app decode);
    ("Batcher.stage_flush_ns_per_msg", kernel rec_ ~layer:"Batcher.add+flush" ~app stage);
    ("Squeue.handoff_ns_per_msg", kernel rec_ ~layer:"Squeue.push_list+pop_batch" ~app handoff);
  ]
