(* A process-wide metrics registry: named counters, gauges and
   histograms.

   Counters are always on -- an increment is one atomic add, so there
   is no enable switch, and increments from several domains are never
   lost.  Call sites cache the metric handle in a
   module-level binding; [reset] therefore zeroes metrics in place
   instead of discarding them, keeping every cached handle valid.

   Histograms use fixed log-linear buckets -- 8 sub-buckets per
   power-of-two octave, 32 octaves each side of 1 -- so p50/p90/p99
   read out with bounded relative error (one bucket is a factor of
   2^(1/8) ~ 9% wide) from nanoseconds in seconds to hours in
   microseconds, at a fixed 512-int footprint, with no
   per-observation allocation.  Each histogram takes its own lock for
   an observation, so what a snapshot reads is consistent: [n] is the
   sum of the buckets. *)

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; mutable value : float }

(* Log-linear buckets: bucket 0 counts values <= 2^-32; bucket i
   (i >= 1) counts values in (2^((i-1-256)/8), 2^((i-256)/8)]; the
   last bucket overflows (2^(255/8) ~ 4e9 -- over an hour in
   microseconds).  Values above 1 land exactly where a 1-based scale
   would put them, so microsecond histograms read as they always have. *)
let sub_buckets = 8
let below_one = 32 * sub_buckets   (* buckets at or below 1 *)
let bucket_count = 2 * below_one

(* Upper bound of bucket i. *)
let bucket_bound =
  let bounds =
    Array.init bucket_count (fun i ->
        Float.pow 2.0
          (float_of_int (i - below_one) /. float_of_int sub_buckets))
  in
  fun i -> bounds.(i)

let bucket_of v =
  if v <= bucket_bound 0 then 0
  else
    let b =
      int_of_float (ceil (float_of_int sub_buckets *. Float.log2 v)) + below_one
    in
    min (max b 0) (bucket_count - 1)

type histogram = {
  h_name : string;
  lock : Mutex.t;  (* every field below is read and written under it *)
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;
}

type t = {
  reg_lock : Mutex.t;  (* find-or-create, from any domain *)
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    reg_lock = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

(* The registry every standard engine metric lives in. *)
let global = create ()

let find_or_add reg tbl name make =
  Mutex.protect reg.reg_lock @@ fun () ->
  match Hashtbl.find_opt tbl name with
  | Some x -> x
  | None ->
    let x = make () in
    Hashtbl.add tbl name x;
    x

let counter ?(registry = global) name =
  find_or_add registry registry.counters name (fun () ->
      { c_name = name; count = Atomic.make 0 })

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.count by : int)
let count c = Atomic.get c.count

let gauge ?(registry = global) name =
  find_or_add registry registry.gauges name (fun () ->
      { g_name = name; value = 0.0 })

let set g v = g.value <- v
let value g = g.value

(* [Gc.quick_stat] on OCaml 5.1 counts a domain's minor words only up
   to its last minor collection; collecting first makes every domain's
   count current. *)
let sample_gc () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  let put name v = set (gauge name) v in
  put "gc.minor_words" s.Gc.minor_words;
  put "gc.major_words" s.Gc.major_words;
  put "gc.minor_collections" (float_of_int s.Gc.minor_collections);
  put "gc.major_collections" (float_of_int s.Gc.major_collections);
  put "gc.heap_words" (float_of_int s.Gc.heap_words);
  put "gc.top_heap_words" (float_of_int s.Gc.top_heap_words)

external minor_collections : unit -> int = "ddf_minor_collections" [@@noalloc]

(* Both heaps: a block too large for the minor heap goes straight to
   the major heap.  Promoted words count as major words too, so only
   the direct ones are added.  On OCaml 5.1 the minor count must come
   from [Gc.minor_words] (the one in [Gc.counters] is off by the word
   size) and the major counts from [Gc.counters] ([Gc.quick_stat]'s
   lag behind promotion). *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let with_alloc_words f =
  let m0 = direct_major_words () in
  let w0 = Gc.minor_words () in
  let x = f () in
  let w1 = Gc.minor_words () in
  (x, w1 -. w0 +. (direct_major_words () -. m0))

let alloc_words f = snd (with_alloc_words (fun () -> Sys.opaque_identity (f ())))

let histogram ?(registry = global) name =
  find_or_add registry registry.histograms name (fun () ->
      { h_name = name; lock = Mutex.create (); n = 0; sum = 0.0;
        min_v = infinity; max_v = neg_infinity;
        buckets = Array.make bucket_count 0 })

(* Nothing in a locked section can raise. *)
let locked h f =
  Mutex.lock h.lock;
  let x = f h in
  Mutex.unlock h.lock;
  x

let observe h v =
  let b = bucket_of v in
  Mutex.lock h.lock;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  h.buckets.(b) <- h.buckets.(b) + 1;
  Mutex.unlock h.lock

let mean h = locked h (fun h -> if h.n = 0 then 0.0 else h.sum /. float_of_int h.n)

(* Cumulative-rank walk with linear interpolation inside the landing
   bucket, clamped to the observed [min, max] so small samples do not
   report a bucket bound no value ever reached.  Call under the lock. *)
let quantile_locked h q =
  if h.n = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = q *. float_of_int h.n in
    let rec walk i cum =
      if i >= bucket_count then h.max_v
      else
        let cum' = cum +. float_of_int h.buckets.(i) in
        if cum' >= rank && h.buckets.(i) > 0 then begin
          let lo = if i = 0 then 0.0 else bucket_bound (i - 1) in
          let hi = bucket_bound i in
          let frac =
            (rank -. cum) /. float_of_int h.buckets.(i)
          in
          let v = lo +. ((hi -. lo) *. Float.min 1.0 (Float.max 0.0 frac)) in
          Float.min h.max_v (Float.max h.min_v v)
        end
        else walk (i + 1) cum'
    in
    walk 0 0.0
  end

let quantile h q = locked h (fun h -> quantile_locked h q)

let reset reg =
  Mutex.protect reg.reg_lock @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) reg.counters;
  Hashtbl.iter (fun _ g -> g.value <- 0.0) reg.gauges;
  Hashtbl.iter
    (fun _ h ->
      locked h (fun h ->
          h.n <- 0;
          h.sum <- 0.0;
          h.min_v <- infinity;
          h.max_v <- neg_infinity;
          Array.fill h.buckets 0 bucket_count 0))
    reg.histograms

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histo = {
  hs_n : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

type metric =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * histo

let metric_name = function
  | Counter (n, _) | Gauge (n, _) | Histogram (n, _) -> n

let histo_of_histogram h =
  locked h @@ fun h ->
  if h.n = 0 then
    { hs_n = 0; hs_sum = 0.0; hs_min = 0.0; hs_max = 0.0;
      hs_p50 = 0.0; hs_p90 = 0.0; hs_p99 = 0.0 }
  else
    {
      hs_n = h.n;
      hs_sum = h.sum;
      hs_min = h.min_v;
      hs_max = h.max_v;
      hs_p50 = quantile_locked h 0.50;
      hs_p90 = quantile_locked h 0.90;
      hs_p99 = quantile_locked h 0.99;
    }

let hs_mean hs = if hs.hs_n = 0 then 0.0 else hs.hs_sum /. float_of_int hs.hs_n

(* Empty histograms are included (n = 0, zeroed stats): a consumer can
   tell "no samples yet" from "metric missing". *)
let snapshot reg =
  Mutex.protect reg.reg_lock @@ fun () ->
  let cs =
    Hashtbl.fold (fun _ c acc -> Counter (c.c_name, count c) :: acc)
      reg.counters []
  in
  let gs =
    Hashtbl.fold (fun _ g acc -> Gauge (g.g_name, g.value) :: acc)
      reg.gauges []
  in
  let hs =
    Hashtbl.fold
      (fun _ h acc -> Histogram (h.h_name, histo_of_histogram h) :: acc)
      reg.histograms []
  in
  List.sort (fun a b -> compare (metric_name a) (metric_name b)) (cs @ gs @ hs)

let json_of_metrics metrics =
  let buf = Buffer.create 512 in
  let fields =
    List.map
      (fun m ->
        match m with
        | Counter (n, v) ->
          Printf.sprintf "\"%s\": %d" (Obs.json_escape n) v
        | Gauge (n, v) ->
          Printf.sprintf "\"%s\": %s" (Obs.json_escape n) (Obs.json_float v)
        | Histogram (n, h) ->
          Printf.sprintf
            "\"%s\": {\"n\": %d, \"mean\": %s, \"min\": %s, \"max\": %s, \
             \"p50\": %s, \"p90\": %s, \"p99\": %s}"
            (Obs.json_escape n) h.hs_n
            (Obs.json_float (hs_mean h))
            (Obs.json_float h.hs_min) (Obs.json_float h.hs_max)
            (Obs.json_float h.hs_p50) (Obs.json_float h.hs_p90)
            (Obs.json_float h.hs_p99))
      metrics
  in
  Buffer.add_string buf "{";
  Buffer.add_string buf (String.concat ", " fields);
  Buffer.add_string buf "}";
  Buffer.contents buf

let to_json reg = json_of_metrics (snapshot reg)

let pp_metrics ppf metrics =
  List.iter
    (fun m ->
      match m with
      | Counter (n, v) -> Fmt.pf ppf "%-32s %d@." n v
      | Gauge (n, v) -> Fmt.pf ppf "%-32s %g@." n v
      | Histogram (n, h) ->
        Fmt.pf ppf
          "%-32s n=%d mean=%.1f min=%g max=%g p50=%g p90=%g p99=%g@." n
          h.hs_n (hs_mean h) h.hs_min h.hs_max h.hs_p50 h.hs_p90 h.hs_p99)
    metrics

let pp ppf reg = pp_metrics ppf (snapshot reg)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Dots become underscores; histograms render summary-style with
   quantile labels plus _sum and _count; counters get the _total
   suffix the convention expects. *)
let prom_name n =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    n

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 9e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prometheus_of_metrics metrics =
  let buf = Buffer.create 1024 in
  List.iter
    (fun m ->
      match m with
      | Counter (n, v) ->
        let n = prom_name n in
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s_total counter\n%s_total %d\n" n n v)
      | Gauge (n, v) ->
        let n = prom_name n in
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (prom_float v))
      | Histogram (n, h) ->
        let n = prom_name n in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
        List.iter
          (fun (q, v) ->
            Buffer.add_string buf
              (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n q (prom_float v)))
          [ ("0.5", h.hs_p50); ("0.9", h.hs_p90); ("0.99", h.hs_p99) ];
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n%s_count %d\n" n (prom_float h.hs_sum)
             n h.hs_n))
    metrics;
  Buffer.contents buf
