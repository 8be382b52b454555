(* Clocks, a fixed-memory latency histogram, seeded payload generation
   and the small statistics the benchmark reports. *)

(* Monotonic nanoseconds, and the CPU time of the whole process (all
   threads, user + system) in nanoseconds; see clock_stubs.c. Neither
   reading allocates. *)
external now_ns : unit -> (int[@untagged])
  = "perfbench_monotonic_ns_byte" "perfbench_monotonic_ns"
[@@noalloc]

external cpu_ns : unit -> (int[@untagged])
  = "perfbench_cpu_ns_byte" "perfbench_cpu_ns"
[@@noalloc]

let cpu_s () = float_of_int (cpu_ns ()) *. 1e-9

(* Words allocated so far: minor allocations plus direct major ones
   (large payloads skip the minor heap). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Log-linear histogram over non-negative integers (nanoseconds):
   values below 1024 are exact, above they keep 10 significant bits
   (0.1% resolution), up to 2^50. Memory is fixed, so recording cost and
   heap size do not grow with the number of samples. *)

module Hist = struct
  let bits = 10
  let sub = 1 lsl bits
  let max_exp = 40
  let nbuckets = sub + ((max_exp + 1) * sub)

  type t = { counts : int array; mutable n : int; mutable max : int }

  let create () = { counts = Array.make nbuckets 0; n = 0; max = 0 }

  let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

  let bucket v =
    if v < sub then max v 0
    else
      let e = min max_exp (msb v 0 - bits) in
      sub + (e * sub) + min (sub - 1) ((v lsr e) - sub)

  (* the bucket's lowest value and width *)
  let range b =
    if b < sub then (float_of_int b, 1.)
    else
      let e = (b - sub) / sub and s = ((b - sub) mod sub) + sub in
      let w = float_of_int (1 lsl e) in
      (float_of_int s *. w, w)

  let add t v =
    let b = bucket v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    if v > t.max then t.max <- v

  let reset t =
    Array.fill t.counts 0 nbuckets 0;
    t.n <- 0;
    t.max <- 0

  let merge_into ~dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    dst.max <- max dst.max src.max

  let count t = t.n

  (* nearest-rank percentile, [p] in [0, 1], interpolated within its
     bucket; 0 when empty *)
  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
      let b = ref 0 and seen = ref t.counts.(0) in
      while !seen < rank do
        incr b;
        seen := !seen + t.counts.(!b)
      done;
      let c = t.counts.(!b) in
      let lo, w = range !b in
      let frac = float_of_int (rank - (!seen - c)) /. float_of_int c in
      Float.min (lo +. (frac *. w)) (float_of_int t.max)
    end
end

(* ------------------------------------------------------------------ *)
(* Payloads: a pool of distinct random payloads drawn from the workload
   seed. Message [seq] of application [app] carries payload
   [(app + seq) mod count]; sinks recompute its checksum and compare it
   with the pool's. *)

module Gen = struct
  type pool = { payloads : Bytes.t array; sums : int array; size : int }

  (* FNV-1a over 64-bit words (then the tail bytes) *)
  let checksum b =
    let n = Bytes.length b in
    let h = ref (0xcbf29ce484222 lxor n) in
    let i = ref 0 in
    while !i + 8 <= n do
      h := (!h lxor Int64.to_int (Bytes.get_int64_le b !i)) * 0x100000001b3;
      i := !i + 8
    done;
    while !i < n do
      h := (!h lxor Char.code (Bytes.unsafe_get b !i)) * 0x100000001b3;
      incr i
    done;
    !h

  let pool ~seed ~size ~count =
    let rng = Random.State.make [| seed; size; 0x1077 |] in
    let payloads =
      Array.init count (fun _ ->
          Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)))
    in
    { payloads; sums = Array.map checksum payloads; size }

  let payload p ~app ~seq = p.payloads.((app + seq) mod Array.length p.payloads)
  let sum p ~app ~seq = p.sums.((app + seq) mod Array.length p.sums)

  (* one number standing for every generated byte, for the self-test
     that a different seed changes the inputs *)
  let digest p = Array.fold_left (fun acc s -> (acc * 31) + s) 0 p.sums
end

(* ------------------------------------------------------------------ *)
(* Statistics over float samples. *)

(* the mean of the two middle samples when their number is even; 0 when
   there are none *)
let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
