(* The host-speed reference.  On a shared host the same vCPU runs up to
   1.7 times slower for seconds or minutes at a time while neighbours are
   busy, and every time metric moves with it.  The benchmark pins the
   daemon and the load generator to one vCPU (run.py) and times this
   fixed chunk of work on it after every iteration.  Each time metric is
   then scaled to a host on which the chunk takes [nominal]: a sample
   taken while the chunk ran at [c] counts as [sample *. nominal /. c].

   The chunk is self-contained and calls none of the repository's
   libraries, so no change to the program can move it.  It does what the
   daemon does most: it allocates, builds a string-keyed map from keys
   scattered over a few hundred kilobytes of heap, and sorts a list.  Of
   the references tried (pointer walks through the first- and
   second-level caches and through main memory, integer arithmetic, a
   walk over a large retained structure, and maps over few and over many
   keys), this one tracked the daemon's speed best: on [design_flows] and
   [version_history] it cut the run-to-run spread of the window times
   and of the latency medians (coefficient of variation over five runs)
   from 0.03-0.18 unscaled to 0.02-0.08. *)

(* The chunk time of the host the metrics are scaled to: about the
   uncontended time on a 2-core Xeon VM. *)
let nominal = 150e-6

module SM = Map.Make (String)

let keys = Array.init 4000 (fun i -> Printf.sprintf "key-%d-%d" (i * 7919 mod 1000) i)

(* The duration of one chunk, in seconds. *)
let chunk () =
  let t0 = Spans.now () in
  let m = ref SM.empty in
  for i = 0 to 399 do
    m := SM.add keys.(i * 37 mod 4000) i !m
  done;
  let l = List.sort compare (List.init 600 (fun i -> (i * 7919) land 1023)) in
  ignore (Sys.opaque_identity (!m, l));
  Spans.now () -. t0
