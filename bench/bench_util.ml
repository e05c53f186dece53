(* Shared machinery for the experiment harness: a bechamel runner that
   prints one row per test, and small table helpers. *)

open Bechamel

let quota = ref 0.25

(* Run a group of bechamel tests and print the estimated ns/run. *)
let run_bechamel ~name tests =
  let test = Test.make_grouped ~name tests in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second !quota)
      ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if ns < 1_000.0 then Printf.printf "  %-48s %10.0f ns/run\n" name ns
      else if ns < 1_000_000.0 then
        Printf.printf "  %-48s %10.2f us/run\n" name (ns /. 1_000.0)
      else Printf.printf "  %-48s %10.2f ms/run\n" name (ns /. 1_000_000.0))
    rows

let header id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "================================================================\n"

let paper_claim s = Printf.printf "paper: %s\n\n" s

let section s = Printf.printf "\n-- %s --\n" s

(* Wall-clock measurement of a single thunk, median of [runs]. *)
let time_us ?(runs = 5) f =
  let sample () =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    ignore (Sys.opaque_identity x);
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  let samples = List.init runs (fun _ -> sample ()) |> List.sort compare in
  List.nth samples (runs / 2)

(* ------------------------------------------------------------------ *)
(* Machine-readable per-experiment metrics                             *)
(* ------------------------------------------------------------------ *)

type exp_result = {
  exp_id : string;
  exp_title : string;
  wall_s : float;
  metrics_json : string;   (* snapshot of the global registry *)
}

let results : exp_result list ref = ref []

(* Run one experiment against a freshly reset global metrics registry,
   recording wall time and the engine counters it accumulated. *)
let run_recorded ~id ~title f =
  Ddf.Metrics.reset Ddf.Metrics.global;
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  results :=
    { exp_id = id; exp_title = title; wall_s;
      metrics_json = Ddf.Metrics.to_json Ddf.Metrics.global }
    :: !results

(* One JSON object per experiment: name, wall time, engine metrics. *)
let write_json path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "  {\"experiment\": \"%s\", \"title\": \"%s\", \"wall_s\": %.6f, \
         \"metrics\": %s}"
        (Ddf.Obs.json_escape r.exp_id)
        (Ddf.Obs.json_escape r.exp_title)
        r.wall_s r.metrics_json)
    (List.rev !results);
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "[metrics written to %s]\n" path

let print_table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let print_row cells =
    List.iteri
      (fun i c -> Printf.printf "%-*s  " (List.nth widths i) c)
      cells;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* Nanoseconds per call of each thunk: the fastest of [passes] timed
   passes of [iters] calls each, after a warm-up.  The passes go round
   by round across the thunks, so each thunk's passes are spread over
   the whole measurement: a slow phase of a shared host slows some
   passes of every thunk, not all passes of one. *)
let best_ns_each ?(passes = 15) ?(iters = 1_000) fs =
  let fs = Array.of_list fs in
  Array.iter (fun f -> for _ = 1 to 200 do f () done) fs;
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to passes do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          f ()
        done;
        let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
        best.(i) <- Float.min best.(i) ns)
      fs
  done;
  Array.to_list best

let thunk f () = ignore (Sys.opaque_identity (f ()))

let best_ns ?passes ?iters f =
  List.hd (best_ns_each ?passes ?iters [ thunk f ])

(* A fixed chunk of work that calls nothing in the repository, so no
   change to the program moves it: it allocates, builds a string-keyed
   map and sorts a list, as the codecs and the daemon do.  Timed among
   a benchmark's own thunks, it measures how fast the host ran during
   that benchmark. *)
module Ref_map = Map.Make (String)

let ref_keys = Array.init 512 (fun i -> string_of_int ((i * 7919) land 4095))

let host_reference () =
  let m = ref Ref_map.empty in
  for i = 0 to 63 do
    m := Ref_map.add ref_keys.((i * 37) land 511) i !m
  done;
  let l = List.sort compare (List.init 64 (fun i -> (i * 7919) land 255)) in
  ignore (Sys.opaque_identity (!m, l))

(* The reference chunk's time, best of 15 passes, on an uncontended
   2-vCPU Xeon VM: a time scaled by [host_nominal_ns /. reference] is
   what that host would have measured. *)
let host_nominal_ns = 6_500.
