(* The benchmark-side sink: the correctness oracle shared by the sockets
   and the simulator workloads. Each sink checks that every application
   stream arrives exactly once and in order (sequence numbers 0, 1, 2,
   ... with no gap or repeat) and that each payload's checksum matches
   the generated one. The sinks of one pass also time each message from
   when it was due (the driver's send or the source's creation) to the
   [process] callback of the last sink that receives it. *)

open Util

type inject = No_inject | Drop | Corrupt

(* the message a self-test drops or corrupts at sink 0 *)
let inject_seq = 100

(* What the sinks of one pass share. Due times and the number of sinks
   still to receive each message live in per-application rings indexed
   by [seq], with far more slots than messages ever in flight. The
   sender fills a slot before the message leaves it; sinks, which may
   run on different threads, update it under [lock]. *)
let ring = 1 lsl 16
let ring_mask = ring - 1

type board = {
  due : int array array;
  left : int array array;
  fanout : int;  (** sinks that receive every message *)
  lock : Mutex.t;
  lat : Hist.t;  (** due time to the last sink's [process] *)
}

let board ~apps ~fanout =
  {
    due = Array.init apps (fun _ -> Array.make ring 0);
    left = Array.init apps (fun _ -> Array.make ring 0);
    fanout;
    lock = Mutex.create ();
    lat = Hist.create ();
  }

(* the sender's side: message [seq] of [app] is due at [at] (ns) *)
let sent b ~app ~seq ~at =
  let i = seq land ring_mask in
  b.due.(app).(i) <- at;
  b.left.(app).(i) <- b.fanout

let arrived b ~app ~seq ~now =
  let i = seq land ring_mask in
  Mutex.lock b.lock;
  let left = b.left.(app).(i) - 1 in
  b.left.(app).(i) <- left;
  if left = 0 then Hist.add b.lat (now - b.due.(app).(i));
  Mutex.unlock b.lock

type t = {
  index : int;
  pool : Gen.pool;
  board : board;
  expect : int array;  (** next sequence number per application *)
  delivered : int Atomic.t;
  warm : int Atomic.t;  (** set-up probe messages seen *)
  mutable bytes : int;
  mutable last_ns : int;
  mutable violations : int;
  mutable first_error : string;
  inject : inject;
}

let create ~index ~pool ~board ~inject =
  {
    index;
    pool;
    board;
    expect = Array.make (Array.length board.due) 0;
    delivered = Atomic.make 0;
    warm = Atomic.make 0;
    bytes = 0;
    last_ns = 0;
    violations = 0;
    first_error = "";
    inject;
  }

let violation t msg =
  if t.violations = 0 then t.first_error <- msg;
  t.violations <- t.violations + 1

let flip payload =
  let b = Bytes.copy payload in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  b

let deliver t ~now ~app ~seq payload =
  let injected = t.index = 0 && seq = inject_seq in
  if injected && t.inject = Drop then ()
  else if app < 0 || app >= Array.length t.expect then
    violation t (Printf.sprintf "sink %d: unknown app %d" t.index app)
  else begin
    let payload = if injected && t.inject = Corrupt then flip payload else payload in
    let e = t.expect.(app) in
    if seq <> e then
      violation t
        (Printf.sprintf "sink %d app %d: got seq %d, expected %d" t.index app
           seq e);
    t.expect.(app) <- max e (seq + 1);
    if
      Bytes.length payload <> t.pool.Gen.size
      || Gen.checksum payload <> Gen.sum t.pool ~app ~seq
    then
      violation t
        (Printf.sprintf "sink %d app %d seq %d: payload checksum mismatch"
           t.index app seq);
    arrived t.board ~app ~seq ~now;
    t.bytes <- t.bytes + Bytes.length payload;
    t.last_ns <- now;
    Atomic.incr t.delivered
  end

let delivered t = Atomic.get t.delivered
let total f sinks = Array.fold_left (fun acc s -> acc + f s) 0 sinks

let violations sinks = total (fun s -> s.violations) sinks

let first_error sinks =
  Array.fold_left
    (fun acc s -> if acc = "" then s.first_error else acc)
    "" sinks
