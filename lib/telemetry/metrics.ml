module Wire = Iov_msg.Wire

type counter = { mutable c : int }
type gauge = { mutable g : float }

let nbuckets = 63

type histogram = {
  buckets : int array; (* log2 buckets, see .mli *)
  mutable h_count : int;
  mutable h_sum : int;
}

type cell = C of counter | G of gauge | H of histogram

type entry = { full : string; cell : cell }

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable order : entry list; (* reverse registration order *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }

let full_name ?scope name =
  match scope with None | Some "" -> name | Some s -> s ^ "." ^ name

let register t ?scope name make describe =
  let full = full_name ?scope name in
  match Hashtbl.find_opt t.tbl full with
  | Some e -> e.cell
  | None ->
    ignore describe;
    let e = { full; cell = make () } in
    Hashtbl.add t.tbl full e;
    t.order <- e :: t.order;
    e.cell

let kind_error full want =
  invalid_arg (Printf.sprintf "Metrics: %s already registered, not a %s" full want)

let counter t ?scope name =
  match register t ?scope name (fun () -> C { c = 0 }) "counter" with
  | C c -> c
  | G _ | H _ -> kind_error (full_name ?scope name) "counter"

let gauge t ?scope name =
  match register t ?scope name (fun () -> G { g = 0. }) "gauge" with
  | G g -> g
  | C _ | H _ -> kind_error (full_name ?scope name) "gauge"

let histogram t ?scope name =
  match
    register t ?scope name
      (fun () -> H { buckets = Array.make nbuckets 0; h_count = 0; h_sum = 0 })
      "histogram"
  with
  | H h -> h
  | C _ | G _ -> kind_error (full_name ?scope name) "histogram"

let detached_counter () = { c = 0 }

(* hot path: mutable-cell writes only *)
let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let set g v = g.g <- v

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    if !b > nbuckets - 1 then nbuckets - 1 else !b
  end

let observe h v =
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

let value c = c.c
let gauge_value g = g.g
let hist_count h = h.h_count
let hist_sum h = h.h_sum

let hist_buckets h =
  let acc = ref [] in
  for b = nbuckets - 1 downto 0 do
    if h.buckets.(b) > 0 then acc := (b, h.buckets.(b)) :: !acc
  done;
  !acc

type snap =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : int; buckets : (int * int) list }

let snap_of_cell = function
  | C c -> Counter c.c
  | G g -> Gauge g.g
  | H h -> Histogram { count = h.h_count; sum = h.h_sum; buckets = hist_buckets h }

let in_scope scope full =
  let p = scope ^ "." in
  let lp = String.length p in
  String.length full > lp && String.sub full 0 lp = p

let strip scope full =
  let lp = String.length scope + 1 in
  String.sub full lp (String.length full - lp)

let snapshot ?scope t =
  let entries = List.rev t.order in
  match scope with
  | None | Some "" ->
    List.map (fun e -> (e.full, snap_of_cell e.cell)) entries
  | Some s ->
    List.filter_map
      (fun e ->
        if in_scope s e.full then Some (strip s e.full, snap_of_cell e.cell)
        else None)
      entries

(* Deterministic rendering: fixed field order, [%.9g] floats. *)
let to_json ?scope t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"metrics\":{";
  List.iteri
    (fun i (name, snap) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:" name);
      match snap with
      | Counter v ->
        Buffer.add_string buf
          (Printf.sprintf "{\"type\":\"counter\",\"value\":%d}" v)
      | Gauge v ->
        Buffer.add_string buf
          (Printf.sprintf "{\"type\":\"gauge\",\"value\":%.9g}" v)
      | Histogram { count; sum; buckets } ->
        Buffer.add_string buf
          (Printf.sprintf "{\"type\":\"histogram\",\"count\":%d,\"sum\":%d,\"buckets\":{"
             count sum);
        List.iteri
          (fun j (b, n) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Printf.sprintf "\"%d\":%d" b n))
          buckets;
        Buffer.add_string buf "}}")
    (snapshot ?scope t);
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* Wire blob: version tag, then count-prefixed entries. *)
let blob_version = 1

let to_blob ?scope t =
  let entries = snapshot ?scope t in
  let w = Wire.W.create () in
  Wire.W.int32 w blob_version;
  Wire.W.int32 w (List.length entries);
  List.iter
    (fun (name, snap) ->
      Wire.W.string w name;
      match snap with
      | Counter v ->
        Wire.W.int32 w 0;
        Wire.W.float w (float_of_int v)
      | Gauge v ->
        Wire.W.int32 w 1;
        Wire.W.float w v
      | Histogram { count; sum; buckets } ->
        Wire.W.int32 w 2;
        Wire.W.int32 w count;
        Wire.W.float w (float_of_int sum);
        Wire.W.int32 w (List.length buckets);
        List.iter
          (fun (b, n) ->
            Wire.W.int32 w b;
            Wire.W.int32 w n)
          buckets)
    entries;
  Wire.W.contents w

let of_blob buf =
  let r = Wire.R.of_bytes buf in
  let v = Wire.R.int32 r in
  if v <> blob_version then raise Wire.Truncated;
  let n = Wire.R.int32 r in
  if n < 0 then raise Wire.Truncated;
  List.init n (fun _ ->
      let name = Wire.R.string r in
      let snap =
        match Wire.R.int32 r with
        | 0 -> Counter (int_of_float (Wire.R.float r))
        | 1 -> Gauge (Wire.R.float r)
        | 2 ->
          let count = Wire.R.int32 r in
          let sum = int_of_float (Wire.R.float r) in
          let nb = Wire.R.int32 r in
          if nb < 0 then raise Wire.Truncated;
          let buckets =
            List.init nb (fun _ ->
                let b = Wire.R.int32 r in
                let c = Wire.R.int32 r in
                (b, c))
          in
          Histogram { count; sum; buckets }
        | _ -> raise Wire.Truncated
      in
      (name, snap))
