(** A process-wide metrics registry: named counters, gauges and
    histograms.

    Counters are always on -- an increment is one mutable int bump.
    Call sites cache the handle in a module-level binding; {!reset}
    zeroes metrics in place, so cached handles survive a reset.

    Histograms use fixed log-linear buckets (8 sub-buckets per
    power-of-two octave over 2^-32 .. 2^32, 512 buckets total) so
    p50/p90/p99 read out with ~9% worst-case relative error at a fixed
    footprint, for sub-microsecond seconds as for hour-long
    microseconds. *)

type counter
type gauge
type histogram

type t
(** A registry. *)

val create : unit -> t

val global : t
(** The registry the standard engine metrics live in
    ([engine.executed], [store.puts], ...). *)

val counter : ?registry:t -> string -> counter
(** Find or create; [registry] defaults to {!global}. *)

val incr : ?by:int -> counter -> unit
val count : counter -> int

val gauge : ?registry:t -> string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float

val histogram : ?registry:t -> string -> histogram
val observe : histogram -> float -> unit
val mean : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: linear interpolation inside the
    landing bucket, clamped to the observed min/max.  0 when empty. *)

val reset : t -> unit
(** Zero every metric in place (handles stay valid). *)

(** {1 Snapshots} *)

type histo = {
  hs_n : int;
  hs_sum : float;
  hs_min : float;    (** 0 when [hs_n = 0] *)
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

type metric =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * histo

val metric_name : metric -> string
val hs_mean : histo -> float

val snapshot : t -> metric list
(** Sorted by name; empty histograms are {e included} with [hs_n = 0]
    and zeroed stats so consumers can tell "no samples" from "metric
    missing". *)

val json_of_metrics : metric list -> string
val to_json : t -> string
(** One flat JSON object: counters and gauges as numbers, histograms
    as [{"n", "mean", "min", "max", "p50", "p90", "p99"}] objects. *)

val prometheus_of_metrics : metric list -> string
val to_prometheus : t -> string
(** Prometheus text exposition: counters as [<name>_total], gauges
    plain, histograms summary-style with [quantile] labels plus
    [_sum]/[_count].  Dots in names become underscores. *)

val pp_metrics : Format.formatter -> metric list -> unit
val pp : Format.formatter -> t -> unit
