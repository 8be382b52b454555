(** The metrics registry: named counters, gauges and log-bucketed
    histograms, cheap enough for the engine's hot path.

    The contract is the no-allocation rule: {e registration} (looking a
    metric up by name) may allocate and must happen once, at node/link
    setup; {e updates} ({!incr}, {!add}, {!set}, {!observe}) touch only
    preallocated mutable cells and never allocate. Handles returned for
    the same [(scope, name)] pair are physically identical, so
    registration is idempotent.

    Scoping: a metric registered with [~scope] gets the full name
    [scope ^ "." ^ name]; engines scope per node (the node's
    [ip:port]), which keeps one registry per deployment. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Registration (setup path — may allocate)} *)

val counter : t -> ?scope:string -> string -> counter
val gauge : t -> ?scope:string -> string -> gauge

val histogram : t -> ?scope:string -> string -> histogram
(** Histograms observe non-negative integers (byte counts,
    microseconds, ...) into 63 log2 buckets: bucket 0 holds values
    [<= 0], bucket [b >= 1] holds values in [[2^(b-1), 2^b - 1]].

    All three raise [Invalid_argument] if the full name is already
    registered with a different metric kind. *)

val detached_counter : unit -> counter
(** A counter in no registry: it counts and reads like any other but
    has no name and appears in no snapshot. *)

(** {1 Updates (hot path — allocation free)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> int -> unit

(** {1 Reading} *)

val value : counter -> int
val gauge_value : gauge -> float
val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_buckets : histogram -> (int * int) list
(** Non-empty buckets as [(bucket_index, count)], ascending. *)

val bucket_of : int -> int
(** The bucket index {!observe} files a value under (exposed for
    tests). *)

(** {1 Snapshot / export} *)

type snap =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : int; buckets : (int * int) list }

val snapshot : ?scope:string -> t -> (string * snap) list
(** Current values in registration order; with [~scope], only that
    scope's metrics, names stripped of the [scope ^ "."] prefix. *)

val to_json : ?scope:string -> t -> string
(** A deterministic one-line JSON rendering of {!snapshot}. *)

val to_blob : ?scope:string -> t -> Bytes.t
(** {!snapshot} in the compact wire form carried inside status
    reports. Counter values and histogram sums are encoded as floats
    (exact up to 2^53). *)

val of_blob : Bytes.t -> (string * snap) list
(** Decodes {!to_blob} output. @raise Iov_msg.Wire.Truncated on
    malformed input. *)
