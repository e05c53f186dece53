(* The repository benchmark's load generator.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --hercules PATH --work DIR

   One single-process closed loop on one client connection drives the
   shipped [hercules serve] daemon (default flags: --sync-mode group,
   --compact-every 512, --read-domains 0) over its Unix socket.  The
   database starts from a prepared copy built from the seed.  A run is
   made of windows (one per two seconds of --seconds, at least three)
   that each issue the workload's fixed number of operations, so the
   final state and every count repeat for a seed.

   --trace 0 prints the end-to-end metrics of the untraced windows:
   latency percentiles over the samples of all windows pooled, the other
   metrics as the median over the windows.  Every time metric is scaled
   to a nominal host speed with the reference chunk of calib.ml, timed
   between iterations; the unscaled figures are printed too.  --trace 1 runs one untraced
   window (for the daemon's own counters), the same window with
   bench-side spans around every client call (tracing overhead), and the
   in-process replay of the same request stream (per-layer timings).  The last line of
   stdout is the result object. *)

open Ddf

let log fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let quantile q = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Daemon counters (the public Metrics verb)                           *)
(* ------------------------------------------------------------------ *)

let counter ms name =
  List.fold_left
    (fun acc m -> match m with Metrics.Counter (n, v) when n = name -> v | _ -> acc)
    0 ms

let histo ms name =
  List.find_map
    (function Metrics.Histogram (n, h) when n = name -> Some h | _ -> None)
    ms

let delta before after name = counter after name - counter before name

(* Mean of a histogram's observations over the window, from its running
   count and sum. *)
let window_mean before after name =
  match (histo before name, histo after name) with
  | Some b, Some a when a.Metrics.hs_n > b.Metrics.hs_n ->
    (a.Metrics.hs_sum -. b.Metrics.hs_sum) /. float_of_int (a.Metrics.hs_n - b.Metrics.hs_n)
  | _, _ -> 0.0

(* ------------------------------------------------------------------ *)
(* One closed-loop window                                              *)
(* ------------------------------------------------------------------ *)

type run = {
  st : Gen.state;
  seconds : float;
  iter_s : float array;        (* wall time of each iteration, s *)
  iter_reqs : int array;       (* requests each iteration issued *)
  calib : float array;
      (* [calib.(i)]: the reference chunk timed after iteration [i]
         ([calib.(0)] before the first) *)
  samples : (Gen.cls, (float * int) list) Hashtbl.t;
      (* latencies, s, with the iteration each was taken in *)
}

let make_exec ~call ~iter samples =
  { Gen.call;
    timed =
      (fun cls f ->
        let t0 = Spans.now () in
        let v = f () in
        let dt = Spans.now () -. t0 in
        Hashtbl.replace samples cls
          ((dt, !iter) :: Option.value (Hashtbl.find_opt samples cls) ~default:[]);
        v) }

(* Window [k] of a run draws its requests from a stream of its own, so
   pooling the windows also averages over inputs.  The host-speed
   reference is timed between iterations, outside every sample. *)
let drive (w : Gen.workload) ~call ~st0 ~seed ~k =
  let iterations = w.Gen.window in
  let samples = Hashtbl.create 8 in
  let iter = ref 0 in
  let ex = make_exec ~call ~iter samples in
  let st = Gen.copy_state st0 ~rng:(Eda.Rng.create ((seed * 1000) + 2 + k)) ~tag:"w" in
  let iter_s = Array.make iterations 0.0 and iter_reqs = Array.make iterations 0 in
  let calib = Array.make (iterations + 1) 0.0 in
  calib.(0) <- Calib.chunk ();
  let t0 = Spans.now () in
  for i = 1 to iterations do
    iter := i;
    let r0 = st.Gen.requests and ti = Spans.now () in
    w.Gen.iteration ex st i;
    iter_s.(i - 1) <- Spans.now () -. ti;
    iter_reqs.(i - 1) <- st.Gen.requests - r0;
    calib.(i) <- Calib.chunk ()
  done;
  { st; seconds = Spans.now () -. t0; iter_s; iter_reqs; calib; samples }

(* ------------------------------------------------------------------ *)
(* Host-speed adjustment                                               *)
(* ------------------------------------------------------------------ *)

(* The vCPU's speed during iteration [i] relative to the nominal host,
   from the median of the ten chunks timed around it.  A slow phase of
   the host lasts seconds, many iterations; a single chunk that a
   minor collection, an interrupt or the daemon's own late work landed
   in is an outlier the median drops. *)
let speed r i =
  let n = Array.length r.calib in
  let lo = max 0 (i - 5) and hi = min (n - 1) (i + 4) in
  Calib.nominal /. median (Array.to_list (Array.sub r.calib lo (hi - lo + 1)))

(* Latency samples of a class, scaled to the nominal host. *)
let cls_samples r cls =
  List.map
    (fun (dt, i) -> dt *. speed r i)
    (Option.value (Hashtbl.find_opt r.samples cls) ~default:[])

let raw_samples r cls =
  List.map fst (Option.value (Hashtbl.find_opt r.samples cls) ~default:[])

(* Requests and busy time of a window, the time scaled to the nominal
   host (or unscaled). *)
let busy ?(scaled = true) r =
  let reqs = Array.fold_left ( + ) 0 r.iter_reqs and t = ref 0.0 in
  Array.iteri
    (fun i dt -> t := !t +. (dt *. if scaled then speed r (i + 1) else 1.0))
    r.iter_s;
  (reqs, !t)

(* ------------------------------------------------------------------ *)
(* Preparation and set-up                                              *)
(* ------------------------------------------------------------------ *)

let work = ref ".bench_work"
let path f = Filename.concat !work f
let daemons : Daemon.t list ref = ref []

let start ~hercules db =
  let d = Daemon.spawn ~hercules ~db ~socket:(db ^ ".sock") in
  daemons := d :: !daemons;
  let c = Daemon.connect d in
  (d, c)

let stop (d, c) =
  Daemon.stop d c;
  daemons := List.filter (fun x -> x != d) !daemons

(* Journal entries left in the prepared wal: set-up then covers wal
   replay, and every workload and seed starts a window at the same point
   of the compaction cycle. *)
let wal_tail = 256

(* Build the start state over the wire, untimed: compact it, then append
   [wal_tail] annotations. *)
let prepare ~hercules (w : Gen.workload) ~seed =
  let db = path "prepared" in
  let d, c = start ~hercules db in
  let st = Gen.create ~rng:(Eda.Rng.create ((seed * 1000) + 1)) ~tag:"p" in
  let samples = Hashtbl.create 1 in
  w.Gen.prepare (make_exec ~call:(Client.call c) ~iter:(ref 0) samples) st;
  if st.Gen.failed > 0 then
    failwith ("preparation failed: " ^ String.concat "; " st.Gen.failures);
  Client.compact c;
  for i = 1 to wal_tail do
    Client.annotate c ~comment:(Printf.sprintf "tail %d" i) st.Gen.simulator
  done;
  stop (d, c);
  (db, st)

let copies = ref 0

let fresh_copy prepared =
  incr copies;
  let dst = path (Printf.sprintf "db%d" !copies) in
  Daemon.copy_tree prepared dst;
  dst

(* From spawning the daemon on a fresh copy to its first answered ping,
   for [n] start-ups, each with the median of five reference chunks timed
   just before it (not after: the new daemon may still be busy on the
   vCPU).  The last daemon stays up. *)
let setup ~hercules prepared n =
  let times = ref [] in
  let rec go k =
    let db = fresh_copy prepared in
    let c0 = median (List.init 5 (fun _ -> Calib.chunk ())) in
    let t0 = Spans.now () in
    let dc = start ~hercules db in
    let t = Spans.now () -. t0 in
    times := (t, c0) :: !times;
    if k = 1 then (dc, db)
    else begin
      stop dc;
      Daemon.rm_rf db;
      go (k - 1)
    end
  in
  let dc, db = go n in
  (dc, db, !times)

(* ------------------------------------------------------------------ *)
(* A measured daemon window                                            *)
(* ------------------------------------------------------------------ *)

type window = {
  r : run;
  before : Metrics.metric list;
  after : Metrics.metric list;
  rss_kib : int;
  wchar : int;
  disk : int;
  check_failures : string list;
}

let daemon_window ?spans ((d, c) as dc) db (w : Gen.workload) ~st0 ~seed ~k =
  let stat0 = Client.stat c in
  let before = Client.metrics c in
  let wchar0 = Daemon.wchar d in
  let disk0 = Daemon.du db in
  let call =
    match spans with
    | None -> Client.call c
    | Some sp ->
      fun req -> Spans.with_span sp ("client." ^ Wire.request_name req) (fun () -> Client.call c req)
  in
  let r = drive w ~call ~st0 ~seed ~k in
  let wchar1 = Daemon.wchar d in
  let rss_kib = Daemon.peak_rss_kib d in
  let after = Client.metrics c in
  let stat1 = Client.stat c in
  Client.compact c;
  let disk1 = Daemon.du db in
  stop dc;
  (* the generator's own count: every install is one new instance, and
     every invocation a flow or refresh ran made one more *)
  let installs = delta before after "engine.installs" in
  let grown = stat1.Wire.st_instances - stat0.Wire.st_instances in
  let expected = r.st.Gen.installs + r.st.Gen.derived in
  let check_failures =
    (if installs <> r.st.Gen.installs then
       [ Printf.sprintf "daemon counted %d installs, the generator made %d" installs
           r.st.Gen.installs ]
     else [])
    @
    if grown <> expected then
      [ Printf.sprintf "stat grew by %d instances, expected %d installs + %d derived"
          grown r.st.Gen.installs r.st.Gen.derived ]
    else []
  in
  { r; before; after; rss_kib; wchar = wchar1 - wchar0; disk = disk1 - disk0;
    check_failures }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
       ms)

let print_metrics ms =
  List.iter (fun (name, unit_, v) -> log "  %-36s %14.6g %s" name v unit_) ms

(* Requests per second of busy time over all the windows. *)
let ops_per_s ?scaled wins =
  let reqs, t =
    List.fold_left
      (fun (n, t) w ->
        let n', t' = busy ?scaled w.r in
        (n + n', t +. t'))
      (0, 0.0) wins
  in
  float_of_int reqs /. t

let class_ms wins cls q =
  1e3 *. quantile q (List.concat_map (fun w -> cls_samples w.r cls) wins)

let raw_class_ms wins cls q =
  1e3 *. quantile q (List.concat_map (fun w -> raw_samples w.r cls) wins)

(* Set-up time on the nominal host: the median over the start-ups. *)
let setup_s setups = median (List.map (fun (t, c) -> t *. Calib.nominal /. c) setups)

(* The end-to-end metrics of a set of windows.  Latencies and rates are
   percentiles over the samples of all the windows pooled; the state
   metrics are medians over the windows.  Latency medians only: the
   90th percentiles are printed but not gated, because a compaction (a
   snapshot rewrite every 512 journal entries) lands near the 90th
   percentile of the batch and write classes and moves it by tens of
   percent between seeds. *)
let end_to_end wins setups =
  let over_windows f = median (List.map f wins) in
  let per_write f = over_windows (fun w -> ratio (f w) w.r.st.Gen.writes) in
  [ ("setup_s", "s", setup_s setups); ("ops_per_s", "1/s", ops_per_s wins) ]
  @ List.map
      (fun cls -> (Gen.cls_name cls ^ "_p50_ms", "ms", class_ms wins cls 0.5))
      Gen.classes
  @ [ ("daemon_rss_mb", "MiB", over_windows (fun w -> float_of_int w.rss_kib /. 1024.0));
      ("disk_bytes_per_write", "B", per_write (fun w -> w.disk));
      ("written_bytes_per_write", "B", per_write (fun w -> w.wchar)) ]

let daemon_layers win =
  let b = win.before and a = win.after and st = win.r.st in
  let d = delta b a in
  let per n base = ratio (d n) base in
  let p50 name = match histo a name with Some h -> h.Metrics.hs_p50 | None -> 0.0 in
  [ ("journal.appends_per_write", "count", per "journal.appends" st.Gen.writes);
    ("journal.syncs_per_write", "count", per "journal.syncs" st.Gen.writes);
    ("journal.compactions_per_kwrite", "count",
     1000.0 *. per "journal.compactions" st.Gen.writes);
    ("journal.compact_ms_mean", "ms", 1e3 *. window_mean b a "journal.compact_seconds");
    ("cement.fold_ms_mean", "ms", 1e3 *. window_mean b a "cement.fold_seconds");
    ("server.write_queue_wait_us_p50", "us", p50 "server.write_queue_wait_us");
    (* every writer job takes the commit lock once; reads take none *)
    ("server.lock_acquisitions_per_read", "count",
     ratio (d "server.lock_acquisitions" - st.Gen.jobs) st.Gen.reads);
    ("engine.executed_per_flow", "count", per "engine.executed" st.Gen.flows);
    ("engine.memo_hits_per_flow", "count", per "engine.memo_hits" st.Gen.flows);
    ("consistency.reran_per_refresh", "count", per "consistency.reran" st.Gen.refreshes);
    ("consistency.reused_per_refresh", "count", per "consistency.reused" st.Gen.refreshes);
    ("store.puts_per_write", "count", per "store.puts" st.Gen.writes);
    ("store.dedup_hits_per_write", "count", per "store.dedup_hits" st.Gen.writes);
    ("history.appends_per_flow", "count", per "history.appends" st.Gen.flows) ]

let replay_layers (rp : Replay.t) =
  let sp = rp.Replay.spans in
  let p50 name scale = scale *. median (Spans.samples sp name) in
  [ ("wire.decode_us_p50", "us", p50 "wire.decode" 1e6);
    ("wire.encode_us_p50", "us", p50 "wire.encode" 1e6);
    ("wire.bytes_per_op", "B", ratio rp.Replay.wire_bytes rp.Replay.requests);
    ("persist.value_encode_us_p50", "us", p50 "persist.value_encode" 1e6);
    ("session.flow_build_us_p50", "us", p50 "session.flow_build" 1e6);
    ("session.run_ms_p50", "ms", p50 "session.run" 1e3);
    ("consistency.refresh_ms_p50", "ms", p50 "consistency.refresh" 1e3);
    ("history.latest_version_us_p50", "us", p50 "history.latest_version" 1e6);
    ("history.versions_us_p50", "us", p50 "history.versions" 1e6);
    ("history.out_of_date_us_p50", "us", p50 "history.out_of_date" 1e6);
    ("history.trace_ms_p50", "ms", p50 "history.trace" 1e3);
    ("store.browse_us_p50", "us", p50 "store.browse" 1e6);
    ("journal.sync_us_p50", "us", p50 "journal.sync" 1e6);
    ("journal.compact_ms_p50", "ms", p50 "journal.compact" 1e3);
    ("persist.snapshot_save_ms_p50", "ms", p50 "persist.snapshot_save" 1e3);
    ("journal.snapshot_bytes", "B",
     median (List.map float_of_int rp.Replay.snapshot_bytes));
    ("journal.open_ms", "ms", p50 "journal.open" 1e3);
    ("request.self_us_p50", "us", p50 "request#self" 1e6) ]

let report_failures what (st : Gen.state) extra =
  List.iter (fun m -> log "FAILED (%s): %s" what m) (List.rev st.Gen.failures @ extra)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let main ~workload ~seed ~seconds ~trace ~hercules =
  let w =
    match Gen.find workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  (* a run is a number of windows that grows with [seconds], each of the
     workload's fixed size and each on a fresh copy of the prepared
     database: a longer run makes the figures steadier, not different.
     A traced run measures window 0 only. *)
  let windows = if trace then 1 else max 3 (seconds / 2) in
  log "workload %s, seed %d, %d windows of %d iterations, one client, closed loop"
    workload seed windows w.Gen.window;
  log "daemon: hercules serve --sync-mode group --compact-every 512 \
       --read-domains 0 (defaults); flush policy group on both sides; \
       times are this host's scaled to a nominal host speed, not a device's";
  let prepared, st0 = prepare ~hercules w ~seed in
  let untraced ~setups ~k =
    let dc, db, setup_times = setup ~hercules prepared setups in
    let win = daemon_window dc db w ~st0 ~seed ~k in
    Daemon.rm_rf db;
    (win, setup_times)
  in
  if not trace then begin
    let runs = List.init windows (fun k -> untraced ~setups:2 ~k) in
    let wins = List.map fst runs in
    let setups = List.concat_map snd runs in
    let chunks = List.concat_map (fun w -> Array.to_list w.r.calib) wins in
    log "host-speed reference: chunk p5 %.1f, p50 %.1f, p95 %.1f us; every time \
         metric is scaled to a host where it takes %.0f us"
      (1e6 *. quantile 0.05 chunks) (1e6 *. median chunks) (1e6 *. quantile 0.95 chunks)
      (1e6 *. Calib.nominal);
    List.iteri
      (fun k (win, su) ->
        let st = win.r.st in
        report_failures "daemon" st win.check_failures;
        log "window %d: %d requests in %.2f s, host at %.2f of nominal speed" k
          st.Gen.requests win.r.seconds
          (Calib.nominal /. median (Array.to_list win.r.calib));
        log "window %d metrics: %s" k
          (String.concat " "
             (List.map (fun (n, _, v) -> Printf.sprintf "%s=%.6g" n v)
                (end_to_end [ win ] su))))
      runs;
    let metrics = end_to_end wins setups in
    List.iter
      (fun cls ->
        log "  %-8s %6d samples, p90 %.4f ms (pooled over windows; not gated); \
             unscaled p50 %.4f ms"
          (Gen.cls_name cls)
          (List.fold_left (fun a win -> a + List.length (raw_samples win.r cls)) 0 wins)
          (class_ms wins cls 0.9) (raw_class_ms wins cls 0.5))
      Gen.classes;
    log "  unscaled: setup_s %.6g s, ops_per_s %.6g 1/s"
      (median (List.map fst setups)) (ops_per_s ~scaled:false wins);
    let attempted = List.fold_left (fun a (win, _) -> a + win.r.st.Gen.requests) 0 runs in
    let failed =
      List.fold_left
        (fun a (win, _) -> a + win.r.st.Gen.failed + List.length win.check_failures)
        0 runs
    in
    log "requests %d, failed %d, failed_share %.6f" attempted failed
      (ratio failed (max 1 attempted));
    print_metrics metrics;
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (failed = 0) attempted failed (json_metrics metrics)
  end
  else begin
    let win, _ = untraced ~setups:1 ~k:0 in
    (* the same run with a bench-side span around every client call *)
    let spans = Spans.create () in
    let dc, db, _ = setup ~hercules prepared 1 in
    let traced = daemon_window ~spans dc db w ~st0 ~seed ~k:0 in
    Daemon.rm_rf db;
    let plain = ops_per_s [ win ] and spanned = ops_per_s [ traced ] in
    let overhead_pct = 100.0 *. (plain -. spanned) /. plain in
    log "tracing overhead: untraced %.1f ops/s, traced %.1f ops/s (%.2f%%)" plain
      spanned overhead_pct;
    (* the in-process replay of the same stream on the same bytes *)
    let rspans = Spans.create () in
    let rdb = fresh_copy prepared in
    let rp = Replay.open_ ~spans:rspans ~dir:rdb in
    let before = Metrics.snapshot Metrics.global in
    let rr = drive w ~call:(Replay.call rp) ~st0 ~seed ~k:0 in
    let after = Metrics.snapshot Metrics.global in
    Replay.close rp;
    Daemon.rm_rf rdb;
    let appends_diff =
      delta before after "journal.appends" - delta win.before win.after "journal.appends"
    and compactions_diff =
      delta before after "journal.compactions"
      - delta win.before win.after "journal.compactions"
    in
    log "replay fidelity: journal.appends diff %d, journal.compactions diff %d \
         (daemon %d appends, %d compactions)"
      appends_diff compactions_diff
      (delta win.before win.after "journal.appends")
      (delta win.before win.after "journal.compactions");
    report_failures "daemon" win.r.st win.check_failures;
    report_failures "traced" traced.r.st traced.check_failures;
    report_failures "replay" rr.st [];
    let failed =
      win.r.st.Gen.failed + List.length win.check_failures + traced.r.st.Gen.failed
      + List.length traced.check_failures + rr.st.Gen.failed
    in
    let attempted = win.r.st.Gen.requests + traced.r.st.Gen.requests + rr.st.Gen.requests in
    let metrics =
      daemon_layers win @ replay_layers rp
      @ [ ("replay.appends_diff", "count", float_of_int appends_diff);
          ("replay.compactions_diff", "count", float_of_int compactions_diff);
          ("bench.trace_overhead_pct", "%", overhead_pct) ]
    in
    print_metrics metrics;
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (failed = 0) attempted failed (json_metrics metrics)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and hercules = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--hercules", Arg.Set_string hercules, "PATH of the daemon binary");
      ("--work", Arg.Set_string work, "DIR for databases and sockets") ]
    (fun _ -> ())
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --hercules PATH";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~hercules:!hercules
  with
  | () -> ()
  | exception e ->
    List.iter Daemon.kill !daemons;
    Printf.eprintf "bench: %s\n%!" (Printexc.to_string e);
    exit 1
