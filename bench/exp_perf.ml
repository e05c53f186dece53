(* Experiment P: the hot paths.

   1. Journal group commit -- write throughput against a scratch server
      with sync=always (one fsync inside every append) vs sync=group
      (one fsync per drained writer batch).  The workload pipelines
      installs in batches of 32, so group mode pays one disk flush
      where always mode pays 32.
   2. Wire pipelining -- one batch-of-32 frame vs 32 singleton round
      trips over the Unix socket.
   3. Indexed versioning -- versions / latest_version latency over
      histories of 1k, 10k and 100k records (100-deep edit chains),
      answered from the version index in the history state, by a live
      reader and by a reader pinned to a snapshot taken halfway
      through the history.  Both stay flat as the history grows.

   Exported gauges (for --json): perf.write.{always_rps,group_rps,
   speedup}, perf.rtt.{singleton_rps,batch32_rps,speedup},
   perf.query.n<records>.{add_us,live_versions_us,live_latest_us,
   pinned_versions_us,pinned_latest_us}. *)

open Ddf
module E = Standard_schemas.E

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-bench-perf-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let seed ctx = ignore (Workspace.of_session (Session.of_context ctx))

let with_scratch_server ?sync_mode f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start ?sync_mode ~seed ~db:dir ~socket Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t;
      rm_rf dir)
    (fun () -> f socket)

let batch_size = 32

(* ------------------------------------------------------------------ *)
(* 1. Group commit vs per-append fsync                                 *)
(* ------------------------------------------------------------------ *)

let write_batches = 32

let install_req i j =
  Wire.Install
    {
      entity = E.stimuli;
      label = Printf.sprintf "p%d-%d" i j;
      keywords = [];
      value =
        Codec.value_to_sexp (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]));
    }

let write_throughput sync_mode =
  with_scratch_server ~sync_mode @@ fun socket ->
  Client.with_client ~user:"perf" ~socket @@ fun c ->
  ignore (Client.batch c (List.init batch_size (install_req 0)));  (* warmup *)
  let t0 = Unix.gettimeofday () in
  for i = 1 to write_batches do
    List.iter
      (function
        | Wire.Error e -> failwith ("install failed: " ^ Error.message e) | _ -> ())
      (Client.batch c (List.init batch_size (install_req i)))
  done;
  float_of_int (write_batches * batch_size) /. (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* 2. Pipelined batch vs singleton round trips                         *)
(* ------------------------------------------------------------------ *)

let rtt_rounds = 50

let round_trips () =
  with_scratch_server @@ fun socket ->
  Client.with_client ~user:"perf" ~socket @@ fun c ->
  Client.ping c;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rtt_rounds do
    for _ = 1 to batch_size do
      Client.ping c
    done
  done;
  let singleton_s = Unix.gettimeofday () -. t0 in
  let pings = List.init batch_size (fun _ -> Wire.Ping) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rtt_rounds do
    ignore (Client.batch c pings)
  done;
  let batched_s = Unix.gettimeofday () -. t0 in
  let n = float_of_int (rtt_rounds * batch_size) in
  (n /. singleton_s, n /. batched_s)

(* ------------------------------------------------------------------ *)
(* 3. Version queries over growing histories                           *)
(* ------------------------------------------------------------------ *)

let chain_depth = 100
let history_sizes = [ 1_000; 10_000; 100_000 ]
let query_rounds = 1000

(* Median over five batches of [query_rounds] calls, per call. *)
let per_query_us f =
  Bench_util.time_us (fun () ->
      for _ = 1 to query_rounds do
        ignore (Sys.opaque_identity (f ()))
      done)
  /. float_of_int query_rounds

(* [records / chain_depth] edit chains, one after the other.  The
   snapshot taken when half of the chains are written is what a pooled
   read domain holds while a writer keeps adding; it is queried on a
   chain complete inside it, the live history on the newest chain.
   Returns the mean cost of one [History.add] and the four per-query
   latencies, all in us. *)
let version_queries records =
  let schema = Standard_schemas.odyssey in
  let store = Store.create () in
  let h = History.create () in
  let clock = ref 0 in
  let put () =
    incr clock;
    Store.put store ~entity:E.edited_netlist
      ~hash:(Printf.sprintf "h%d" !clock)
      ~meta:(Store.meta ~created_at:!clock ())
      ()
  in
  let chains = records / chain_depth in
  let pinned = ref (History.snapshot h) and pinned_head = ref 0 in
  let live_head = ref 0 and add_s = ref 0.0 in
  for c = 0 to chains - 1 do
    if c = chains / 2 then pinned := History.snapshot h;
    let v0 = put () in
    if c = (chains / 2) - 1 then pinned_head := v0;
    live_head := v0;
    let prev = ref v0 in
    for _ = 1 to chain_depth do
      let v = put () in
      let t0 = Unix.gettimeofday () in
      ignore
        (History.add h store schema ~task_entity:E.edited_netlist ~tool:None
           ~inputs:[ ("source", !prev) ]
           ~outputs:[ (E.edited_netlist, v) ]
           ~at:!clock);
      add_s := !add_s +. (Unix.gettimeofday () -. t0);
      prev := v
    done
  done;
  let snap = !pinned in
  Gc.full_major ();
  (* the live reader first, then the pinned one behind it *)
  let live_versions =
    per_query_us (fun () -> History.versions h store schema !live_head)
  in
  let live_latest =
    per_query_us (fun () -> History.latest_version h store schema !live_head)
  in
  let pinned_versions =
    per_query_us (fun () -> History.Snapshot.versions snap !pinned_head)
  in
  let pinned_latest =
    per_query_us (fun () -> History.Snapshot.latest_version snap !pinned_head)
  in
  assert (
    List.length (History.Snapshot.versions snap !pinned_head)
    = chain_depth + 1);
  ( !add_s *. 1e6 /. float_of_int records,
    live_versions, live_latest, pinned_versions, pinned_latest )

let run () =
  Bench_util.section
    (Printf.sprintf "group commit: %d batches of %d installs per sync mode"
       write_batches batch_size);
  let always_rps = write_throughput Journal.Always in
  let group_rps = write_throughput Journal.Group in
  let w_speedup = group_rps /. always_rps in
  Printf.printf "  sync=always %.0f writes/s, sync=group %.0f writes/s (%.1fx)\n"
    always_rps group_rps w_speedup;
  Metrics.set (Metrics.gauge "perf.write.always_rps") always_rps;
  Metrics.set (Metrics.gauge "perf.write.group_rps") group_rps;
  Metrics.set (Metrics.gauge "perf.write.speedup") w_speedup;

  Bench_util.section
    (Printf.sprintf "pipelining: batch of %d vs %d singleton round trips"
       batch_size batch_size);
  let singleton_rps, batch_rps = round_trips () in
  let r_speedup = batch_rps /. singleton_rps in
  Printf.printf "  singleton %.0f req/s, batch-of-%d %.0f req/s (%.1fx)\n"
    singleton_rps batch_size batch_rps r_speedup;
  Metrics.set (Metrics.gauge "perf.rtt.singleton_rps") singleton_rps;
  Metrics.set (Metrics.gauge "perf.rtt.batch32_rps") batch_rps;
  Metrics.set (Metrics.gauge "perf.rtt.speedup") r_speedup;

  Bench_util.section
    (Printf.sprintf
       "version queries, %d-deep edit chains, live and pinned readers"
       chain_depth);
  let us = Printf.sprintf "%.2f" in
  Bench_util.print_table
    [ "records"; "add us"; "live versions us"; "live latest us";
      "pinned versions us"; "pinned latest us" ]
    (List.map
       (fun records ->
         let add_us, lv, ll, pv, pl = version_queries records in
         let gauge name v =
           Metrics.set
             (Metrics.gauge (Printf.sprintf "perf.query.n%d.%s" records name))
             v
         in
         gauge "add_us" add_us;
         gauge "live_versions_us" lv;
         gauge "live_latest_us" ll;
         gauge "pinned_versions_us" pv;
         gauge "pinned_latest_us" pl;
         [ string_of_int records; us add_us; us lv; us ll; us pv; us pl ])
       history_sizes)
