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
   4. Trace text -- [History.Snapshot.trace_text] of the tip of an edit
      chain 100, 400 and 1600 deep (a fresh editor per edit, as
      `hercules remote edit` makes them), its size in bytes and its
      latency, by a live reader (a fresh snapshot per call) and by a
      reader pinned to a snapshot taken before a second chain as deep
      was written, and the words one call allocates.
   5. Forward chaining -- [History.Snapshot.derived_instances] of the
      base of the same live chain (the [uses] query): its latency and
      the words one call allocates.  Then both reads of a 400-deep chain inside a
      4,000-instance store, the size the daemon serves: eight other
      instances are installed between two edits, so the chain's iids
      spread over the whole store.
   6. Keyword browse -- [Store.Snapshot.browse] by entity and a rare
      keyword, one that 10 instances carry, over stores of 1,000 and
      10,000 instances.  The answer is the same 10 instances at both
      sizes; a browse that scans the entity's instances costs about
      10x more at the larger size, one served from the keyword index
      about the same.  The reverse, a rare entity (10 instances) and a
      keyword a quarter of the store carries, must stay flat too: it
      is served from the entity's instances, not the keyword's.
   7. One install's journal work -- for a 16-gate netlist (perfbench
      ingest's mid size): the put entry encoded and framed with the
      value's text in hand, as a wire install hands it over; decoded;
      decoded with the value parsed back and hash-checked, as replay
      does; and the content hash alone.  ns per call, best of 15
      passes, and the words one call allocates.
   8. The checkpoint -- [Persist.save] in the compaction's form (every
      payload a reference to its cemented put) and [Persist.load] of
      the same bytes, for stores of 1,000 and 4,000 instances and for
      the records of a 400-deep edit chain: us (best of 7 calls), the
      checkpoint's bytes, and the words one call allocates.  Load's
      words grow a little faster than the instances: each store put
      copies a path of four persistent maps.
   9. The install path -- one batch frame of 32 installs as perfbench's
      ingest sends it (netlists and stimuli): the words its body's
      decode allocates, reading its values, the writer's work for them
      (read, install, journal append), and the mean
      [server.alloc_words.batch] an in-process daemon reports for
      eight such frames.  Words do not depend on host speed.
  10. The resident store -- the words the engine store's live state
      reaches ([Obj.reachable_words]) after 4,000 wire installs drawn
      as perfbench's library items are (netlists and stimuli, one coin
      flip each).  Each value rests as its text.
  11. The memo lookup -- [History.Snapshot.find_derivation] as the
      engine calls it for the circuit composition, after 100 and after
      1,600 prior flows, each over its own netlist and all through one
      device model: a miss (a netlist no flow has used) and a hit (the
      newest flow's), us per pair and the words one pair allocates.
      The lookup walks the netlist's users, not the model's, so both
      stay flat as the model's uses grow.
  12. The simulator tool -- one [Eda.Performance.analyze] (event
      simulation, static timing, power and the output signature): a
      perfbench-like 16-gate, 5-input netlist under exhaustive stimuli
      over three nets it never reads, and [ripple_adder 8] under 256
      random vectors.  us per call and the words one call allocates.

   Exported gauges (for --json): perf.write.{always_rps,group_rps,
   speedup}, perf.rtt.{singleton_rps,batch32_rps,speedup},
   perf.query.n<records>.{add_us,live_versions_us,live_latest_us,
   pinned_versions_us,pinned_latest_us},
   perf.trace.d<depth>.{bytes,live_us,pinned_us,alloc_words},
   perf.uses.d<depth>.{us,alloc_words}, perf.trace.n4000_d400.{live_us,
   alloc_words}, perf.uses.n4000_d400.us, perf.browse.n<instances>.us,
   perf.browse_rare_entity.n<instances>.us,
   perf.entry.{encode,decode,replay,hash}.{ns,words},
   perf.checkpoint.{n1000,n4000,d400}.{bytes,save_us,save_words,load_us,
   load_words}, perf.install_path.{decode,value,install,server}.words,
   perf.store.resident_words.n4000, perf.memo.f<flows>.{us,alloc_words},
   perf.analyze.{small,ripple8}.{us,alloc_words}. *)

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

(* Median over five batches of [rounds] calls, per call. *)
let per_query_us ?(rounds = query_rounds) f =
  Bench_util.time_us (fun () ->
      for _ = 1 to rounds do
        ignore (Sys.opaque_identity (f ()))
      done)
  /. float_of_int rounds

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
        (History.add h (Store.snapshot store) schema
           ~task_entity:E.edited_netlist ~tool:None
           ~inputs:[ ("netlist", !prev) ]
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
    per_query_us (fun () ->
        History.Snapshot.versions (History.snapshot h) !live_head)
  in
  let live_latest =
    per_query_us (fun () ->
        History.Snapshot.latest_version (History.snapshot h) !live_head)
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

(* ------------------------------------------------------------------ *)
(* 4 and 5. Trace text and forward chaining over deep edit chains      *)
(* ------------------------------------------------------------------ *)

let trace_depths = [ 100; 400; 1600 ]

(* The words one call of [f] allocates, in both heaps. *)
let alloc_words = Metrics.alloc_words

type chain_reads = {
  bytes : int;          (* the trace text's size *)
  live_us : float;
  pinned_us : float;
  trace_words : float;
  uses_us : float;
  uses_words : float;
}

(* Two edit chains [depth] deep, a snapshot pinned between them.
   Measures the live and the pinned reader's [trace_text] of a tip and
   the live [derived_instances] of a base: per-call latency in us, and
   the words one call allocates. *)
let chain_reads depth =
  let schema = Standard_schemas.odyssey in
  let store = Store.create () in
  let h = History.create () in
  let clock = ref 0 in
  let put entity =
    incr clock;
    Store.put store ~entity
      ~hash:(Printf.sprintf "h%d" !clock)
      ~meta:(Store.meta ~created_at:!clock ())
      ()
  in
  let chain () =
    let rec grow prev i =
      if i = 0 then prev
      else
        let editor = put E.netlist_editor and v = put E.edited_netlist in
        ignore
          (History.add h (Store.snapshot store) schema
             ~task_entity:E.edited_netlist ~tool:(Some editor)
             ~inputs:[ ("netlist", prev) ]
             ~outputs:[ (E.edited_netlist, v) ]
             ~at:!clock);
        grow v (i - 1)
    in
    let base = put E.edited_netlist in
    (base, grow base depth)
  in
  let _, pinned_tip = chain () in
  let snap = History.snapshot h and pinned_store = Store.snapshot store in
  let live_base, live_tip = chain () in
  (* a live read pins a fresh view per call *)
  let live_trace () =
    History.Snapshot.trace_text (History.snapshot h) (Store.snapshot store)
      schema live_tip
  in
  let live_uses () =
    History.Snapshot.derived_instances (History.snapshot h) live_base
  in
  let text = live_trace () in
  assert (
    text = History.Snapshot.trace_text snap pinned_store schema pinned_tip);
  Gc.full_major ();
  (* about 200k nodes per batch at every depth *)
  let rounds = 100_000 / depth in
  let live_us =
    per_query_us ~rounds live_trace
  in
  let pinned_us =
    per_query_us ~rounds (fun () ->
        History.Snapshot.trace_text snap pinned_store schema pinned_tip)
  in
  let trace_words =
    alloc_words (fun () ->
        History.Snapshot.trace_text snap pinned_store schema pinned_tip)
  in
  assert (List.length (live_uses ()) = depth);
  let uses_us = per_query_us ~rounds live_uses in
  let uses_words = alloc_words live_uses in
  { bytes = String.length text; live_us; pinned_us; trace_words; uses_us;
    uses_words }

(* One edit chain [depth] deep with [between] other instances (netlists
   and stimuli) installed before each edit.  Returns the store's size,
   the live [trace_text] of the tip in us and the words it allocates,
   and the live [derived_instances] of the base in us. *)
let store_chain_reads ~depth ~between =
  let schema = Standard_schemas.odyssey in
  let store = Store.create () in
  let h = History.create () in
  let clock = ref 0 in
  let put entity =
    incr clock;
    Store.put store ~entity
      ~hash:(Printf.sprintf "h%d" !clock)
      ~meta:(Store.meta ~keywords:[ "library" ] ~created_at:!clock ())
      ()
  in
  let base = put E.edited_netlist in
  let tip = ref base in
  for _ = 1 to depth do
    for k = 1 to between do
      ignore (put (if k land 1 = 0 then E.edited_netlist else E.stimuli))
    done;
    let editor = put E.netlist_editor and v = put E.edited_netlist in
    ignore
      (History.add h (Store.snapshot store) schema
         ~task_entity:E.edited_netlist ~tool:(Some editor)
         ~inputs:[ ("netlist", !tip) ]
         ~outputs:[ (E.edited_netlist, v) ]
         ~at:!clock);
    tip := v
  done;
  let tip = !tip in
  let h = History.snapshot h and store = Store.snapshot store in
  let trace () = History.Snapshot.trace_text h store schema tip in
  let uses () = History.Snapshot.derived_instances h base in
  assert (List.length (uses ()) = depth);
  Gc.full_major ();
  let rounds = 100_000 / depth in
  ( Store.Snapshot.instance_count store, per_query_us ~rounds trace,
    alloc_words trace, per_query_us ~rounds uses )

(* ------------------------------------------------------------------ *)
(* 6. Keyword browse over growing stores                               *)
(* ------------------------------------------------------------------ *)

let browse_sizes = [ 1_000; 10_000 ]
let rare_carriers = 10

(* [n] instances, mostly netlists and stimuli in turn, each with one
   of four common keywords; [rare_carriers] netlists spread over the
   store also carry "rare", and [rare_carriers] layouts carry "analog".
   Returns the per-call latencies, in us, of the browses for netlists
   with "rare" and for layouts with "analog". *)
let keyword_browse n =
  let store = Store.create () in
  let common = [| "analog"; "cmos"; "adder"; "filter" |] in
  let every = n / rare_carriers in
  for i = 0 to n - 1 do
    let entity, keyword =
      if i mod every = every / 2 then (E.layout, "analog")
      else ((if i land 1 = 0 then E.edited_netlist else E.stimuli), common.(i mod 4))
    in
    let keywords = keyword :: (if i mod every = 0 then [ "rare" ] else []) in
    ignore
      (Store.put store ~entity ~hash:(string_of_int i)
         ~meta:(Store.meta ~user:"bench" ~keywords ~created_at:i ())
         ())
  done;
  let snap = Store.snapshot store in
  let time entity keyword =
    let filter =
      { Store.any_filter with
        Store.f_entities = Some [ entity ]; f_keywords = [ keyword ];
        f_user = Some "bench" }
    in
    assert (List.length (Store.Snapshot.browse snap filter) = rare_carriers);
    Gc.full_major ();
    per_query_us (fun () -> Store.Snapshot.browse snap filter)
  in
  (time E.edited_netlist "rare", time E.layout "analog")

(* ------------------------------------------------------------------ *)
(* 7. The journal's put entry and the content hash                     *)
(* ------------------------------------------------------------------ *)

let entry_rows () =
  let nl = Eda.Circuits.random ~n_inputs:5 ~n_gates:16 (Eda.Rng.create 7) in
  let value = Value.Netlist nl in
  let hash = Value.hash value in
  let put =
    Entry.Put
      { iid = 4096; clock = 8192; entity = E.edited_netlist; hash;
        meta =
          Store.meta ~user:"bench" ~label:"nl" ~keywords:[ "ingest" ]
            ~created_at:8192 ();
        text = Sexp.to_string ~pretty:false (Codec.value_to_sexp value) }
  in
  let payload = Entry.encode put in
  let replay () =
    match Entry.decode payload with
    | Entry.Put { iid; hash; text; _ } -> Entry.value ~iid ~hash text
    | _ -> assert false
  in
  let row key name f = (key, name, Bench_util.best_ns f, alloc_words f) in
  [ row "encode" "put entry encode + frame header" (fun () ->
        Cement.frame_header (Entry.encode put));
    row "decode" "put entry decode" (fun () -> Entry.decode payload);
    row "replay" "put entry decode + value + hash check" replay;
    row "hash" "netlist content hash" (fun () -> Value.hash value) ]

(* ------------------------------------------------------------------ *)
(* 8. The checkpoint, saved and loaded                                 *)
(* ------------------------------------------------------------------ *)

(* A session of [n] installed instances, each a small blob with the
   meta-data a wire install carries, and of [depth] chained edits (an
   editor and a new version per step, one record each). *)
let checkpoint_session ~n ~depth =
  let ctx = Engine.create_context ~user:"bench" Standard_schemas.odyssey in
  let put entity i =
    let value = Value.Blob { blob_kind = "text"; text = Printf.sprintf "v%d" i } in
    Engine.put ctx ~entity
      ~meta:
        (Store.meta ~user:"bench" ~label:(Printf.sprintf "nl%d" i)
           ~keywords:[ "ingest" ] ~created_at:i ())
      value
  in
  for i = 1 to n do
    ignore (put E.edited_netlist i)
  done;
  let prev = ref (put E.edited_netlist 0) in
  for i = 1 to depth do
    let editor = put E.netlist_editor i and v = put E.edited_netlist i in
    ignore
      (History.add ctx.Engine.history (Store.snapshot ctx.Engine.store)
         ctx.Engine.schema ~task_entity:E.edited_netlist ~tool:(Some editor)
         ~inputs:[ ("netlist", !prev) ]
         ~outputs:[ (E.edited_netlist, v) ]
         ~at:i);
    prev := v
  done;
  Session.of_context ctx

(* us of the best of [runs] calls, after one warm-up call. *)
let best_us ?(runs = 7) f =
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e6)
  done;
  !best

let checkpoint_rows () =
  List.map
    (fun (key, name, n, depth) ->
      let session = checkpoint_session ~n ~depth in
      let save () = Persist.save ~cemented:Option.some session in
      let bytes = save () in
      let load () =
        Persist.load ~cemented:Option.some Standard_schemas.odyssey bytes
      in
      Gc.full_major ();
      ( key, name, String.length bytes, best_us save, alloc_words save,
        best_us load, alloc_words load ))
    [ ("n1000", "1,000 instances", 1_000, 0);
      ("n4000", "4,000 instances", 4_000, 0);
      ("d400", "400-deep chain (801 instances, 400 records)", 0, 400) ]

(* ------------------------------------------------------------------ *)
(* 9. The install path of one 32-install batch frame                   *)
(* ------------------------------------------------------------------ *)

(* A batch as perfbench's ingest sends one: netlists of 6-24 gates and
   exhaustive stimuli over 1-4 inputs, alternating; [k] draws the
   contents, so no two batches share a value. *)
let ingest_installs k =
  let rng = Eda.Rng.create (1000 + k) in
  List.init batch_size (fun j ->
         let label = Printf.sprintf "b%d-%d" k j in
         let entity, value =
           if j mod 2 = 0 then
             ( E.edited_netlist,
               Value.Netlist
                 (Eda.Circuits.random ~name:label ~n_inputs:(3 + Eda.Rng.int rng 4)
                    ~n_gates:(6 + Eda.Rng.int rng 18) rng) )
           else
             ( E.stimuli,
               Value.Stimuli
                 (Eda.Stimuli.exhaustive
                    (List.init (1 + Eda.Rng.int rng 4) (Printf.sprintf "%s_i%d" label))) )
         in
         Wire.Install
           { entity; label; keywords = [ "ingest" ]; value = Codec.value_to_sexp value })

let installs = function
  | Wire.Batch reqs ->
    List.filter_map
      (function
        | Wire.Install { entity; label; keywords; value } ->
          Some (entity, label, keywords, value)
        | _ -> None)
      reqs
  | _ -> []

let server_batches = 8

(* The words of: the frame body's decode; reading its 32 values; the
   writer's work for them (each value read, installed and journaled,
   as the server's evaluator does it, without the fsync); and the mean
   [server.alloc_words.batch] of [server_batches] such frames sent to
   an in-process daemon, whose writer's domain runs nothing else. *)
let install_path_rows () =
  let body = Wire.request_to_binary_string (Wire.Batch (ingest_installs 0)) in
  let decoded = Wire.request_of_binary_string body in
  let read_values () =
    List.iter (fun (_, _, _, v) -> ignore (Codec.value_of_sexp v)) (installs decoded)
  in
  let install_journal =
    let dir = fresh_dir () in
    let j = Journal.open_ ~dir Standard_schemas.odyssey in
    let ctx = Journal.context j in
    let words =
      alloc_words (fun () ->
          List.iter
            (fun (entity, label, keywords, value) ->
              let text =
                match value with Sexp.Text t -> Some t | Sexp.Atom _ | Sexp.List _ -> None
              in
              ignore
                (Engine.install ctx ~entity ~label ~keywords ?text
                   (Codec.value_of_sexp value)))
            (installs decoded))
    in
    Journal.close j;
    rm_rf dir;
    words
  in
  let server_words =
    with_scratch_server @@ fun socket ->
    Client.with_client ~user:"perf" ~socket @@ fun c ->
    ignore (Client.batch c (ingest_installs (-1)));
    let n_sum () =
      List.find_map
        (function
          | Metrics.Histogram ("server.alloc_words.batch", h) ->
            Some (float_of_int h.Metrics.hs_n, h.Metrics.hs_sum)
          | _ -> None)
        (Metrics.snapshot Metrics.global)
      |> Option.value ~default:(0.0, 0.0)
    in
    let n0, sum0 = n_sum () in
    for k = 1 to server_batches do
      List.iter
        (function
          | Wire.Ok_int _ -> () | _ -> failwith "install failed")
        (Client.batch c (ingest_installs k))
    done;
    let n1, sum1 = n_sum () in
    (sum1 -. sum0) /. (n1 -. n0)
  in
  [ ("decode", "frame body decode", alloc_words (fun () -> Wire.request_of_binary_string body));
    ("value", "the 32 values read", alloc_words read_values);
    ("install", "values read, installed and journaled", install_journal);
    ("server", "server.alloc_words.batch (mean of 8 frames)", server_words) ]

(* ------------------------------------------------------------------ *)
(* 10. The resident store                                              *)
(* ------------------------------------------------------------------ *)

(* The words the store's live state reaches after [n] installs drawn
   as perfbench's library items, each installed from its text as a
   wire install is. *)
let resident_words n =
  let rng = Eda.Rng.create 410 in
  let ctx = Engine.create_context ~user:"bench" Standard_schemas.odyssey in
  for i = 1 to n do
    let label = Printf.sprintf "lib-%d" i in
    let entity, value =
      if Eda.Rng.int rng 2 = 0 then
        ( E.edited_netlist,
          Value.Netlist
            (Eda.Circuits.random ~name:label ~n_inputs:(3 + Eda.Rng.int rng 4)
               ~n_gates:(6 + Eda.Rng.int rng 18) rng) )
      else
        ( E.stimuli,
          Value.Stimuli
            (Eda.Stimuli.exhaustive
               (List.init (1 + Eda.Rng.int rng 4) (Printf.sprintf "%s_i%d" label))) )
    in
    let text = Codec.value_to_text value in
    ignore
      (Engine.install ctx ~entity ~label ~keywords:[ "library" ] ~text
         (Codec.value_of_text text))
  done;
  Obj.reachable_words (Obj.repr (Store.snapshot ctx.Engine.store))

(* ------------------------------------------------------------------ *)
(* 11. The memo lookup                                                 *)
(* ------------------------------------------------------------------ *)

let memo_flows = [ 100; 1_600 ]

(* [flows] circuit compositions, each over its own netlist and all
   through the workspace's device model, then the next flow's two
   lookups: a miss (a fresh netlist) and a hit (the newest flow's
   inputs).  Returns us per pair and the words one pair allocates. *)
let memo_lookups flows =
  let w = Workspace.create () in
  let ctx = Workspace.ctx w in
  let g, circuit = Task_graph.create (Workspace.schema w) E.circuit in
  let g, _ = Task_graph.expand g circuit in
  let node e = List.hd (Workspace.find_nodes g e) in
  let model = Workspace.default_device_models w in
  let nl = Eda.Circuits.c17 () in
  for _ = 1 to flows do
    ignore
      (Engine.execute ctx g
         ~bindings:
           [ (node E.device_models, model);
             (node E.netlist, Workspace.install_netlist w nl) ])
  done;
  let fresh = Workspace.install_netlist w nl in
  let snap = History.snapshot ctx.Engine.history in
  let newest = History.Snapshot.find snap (History.Snapshot.size snap) in
  let hit = newest.History.inputs in
  let miss =
    List.map (fun (role, iid) -> (role, if iid = model then iid else fresh)) hit
  in
  let lookup inputs =
    History.Snapshot.find_derivation snap ~tool:None ~inputs
      ~out_entities:[ E.circuit ]
  in
  let pair () = (lookup miss, lookup hit) in
  assert (pair () = (None, Some newest));
  Gc.full_major ();
  (per_query_us ~rounds:10_000 pair, alloc_words pair)

(* ------------------------------------------------------------------ *)
(* 12. The simulator tool                                              *)
(* ------------------------------------------------------------------ *)

(* (key, description, us per call, words per call) per case. *)
let analyze_rows () =
  let small =
    Eda.Circuits.random ~name:"small" ~n_inputs:5 ~n_gates:16 (Eda.Rng.create 12)
  in
  let undriven = Eda.Stimuli.exhaustive [ "s_i0"; "s_i1"; "s_i2" ] in
  let adder = Eda.Circuits.ripple_adder 8 in
  let random256 =
    Eda.Stimuli.random ~inputs:adder.Eda.Netlist.primary_inputs ~n:256
      (Eda.Rng.create 5)
  in
  let row key name ~rounds nl stim =
    let f () = Eda.Performance.analyze nl stim in
    Gc.full_major ();
    (key, name, per_query_us ~rounds f, alloc_words f)
  in
  [
    row "small" "16 gates, 8 undriven vectors" ~rounds:2_000 small undriven;
    row "ripple8" "ripple_adder 8, 256 random vectors" ~rounds:5 adder random256;
  ]

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
       history_sizes);

  Bench_util.section
    "trace text of an edit chain's tip (live and pinned readers), uses of \
     its base";
  Bench_util.print_table
    [ "depth"; "bytes"; "live us"; "pinned us"; "alloc words"; "uses us";
      "uses alloc words" ]
    (List.map
       (fun depth ->
         let r = chain_reads depth in
         let gauge group name v =
           Metrics.set
             (Metrics.gauge (Printf.sprintf "perf.%s.d%d.%s" group depth name))
             v
         in
         gauge "trace" "bytes" (float_of_int r.bytes);
         gauge "trace" "live_us" r.live_us;
         gauge "trace" "pinned_us" r.pinned_us;
         gauge "trace" "alloc_words" r.trace_words;
         gauge "uses" "us" r.uses_us;
         gauge "uses" "alloc_words" r.uses_words;
         [ string_of_int depth; string_of_int r.bytes;
           Printf.sprintf "%.1f" r.live_us; Printf.sprintf "%.1f" r.pinned_us;
           Printf.sprintf "%.0f" r.trace_words; Printf.sprintf "%.1f" r.uses_us;
           Printf.sprintf "%.0f" r.uses_words ])
       trace_depths);
  let instances, live_us, words, uses_us =
    store_chain_reads ~depth:400 ~between:8
  in
  Printf.printf
    "  400-deep chain in a %d-instance store: trace %.1f us, %.0f alloc \
     words; uses %.1f us\n"
    instances live_us words uses_us;
  Metrics.set (Metrics.gauge "perf.trace.n4000_d400.live_us") live_us;
  Metrics.set (Metrics.gauge "perf.trace.n4000_d400.alloc_words") words;
  Metrics.set (Metrics.gauge "perf.uses.n4000_d400.us") uses_us;

  Bench_util.section
    (Printf.sprintf
       "browse by a rare keyword (or entity), %d instances carry it"
       rare_carriers);
  Bench_util.print_table [ "instances"; "rare keyword us"; "rare entity us" ]
    (List.map
       (fun n ->
         let keyword_us, entity_us = keyword_browse n in
         let gauge name v =
           Metrics.set (Metrics.gauge (Printf.sprintf "perf.%s.n%d.us" name n)) v
         in
         gauge "browse" keyword_us;
         gauge "browse_rare_entity" entity_us;
         [ string_of_int n; Printf.sprintf "%.2f" keyword_us;
           Printf.sprintf "%.2f" entity_us ])
       browse_sizes);

  Bench_util.section
    "one install's journal work, 16-gate netlist (best of 15 passes)";
  Bench_util.print_table [ "step"; "ns"; "alloc words" ]
    (List.map
       (fun (key, name, ns, words) ->
         let gauge unit v =
           Metrics.set
             (Metrics.gauge (Printf.sprintf "perf.entry.%s.%s" key unit))
             v
         in
         gauge "ns" ns;
         gauge "words" words;
         [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.0f" words ])
       (entry_rows ()));

  Bench_util.section
    "the checkpoint in the compaction's form (payloads cemented), best of 7";
  Bench_util.print_table
    [ "store"; "bytes"; "save us"; "save words"; "load us"; "load words" ]
    (List.map
       (fun (key, name, bytes, save_us, save_words, load_us, load_words) ->
         let gauge unit v =
           Metrics.set
             (Metrics.gauge (Printf.sprintf "perf.checkpoint.%s.%s" key unit))
             v
         in
         gauge "bytes" (float_of_int bytes);
         gauge "save_us" save_us;
         gauge "save_words" save_words;
         gauge "load_us" load_us;
         gauge "load_words" load_words;
         [ name; string_of_int bytes; Printf.sprintf "%.0f" save_us;
           Printf.sprintf "%.0f" save_words; Printf.sprintf "%.0f" load_us;
           Printf.sprintf "%.0f" load_words ])
       (checkpoint_rows ()));

  Bench_util.section
    (Printf.sprintf "install path words, one %d-install batch frame" batch_size);
  Bench_util.print_table [ "step"; "words" ]
    (List.map
       (fun (key, name, words) ->
         Metrics.set (Metrics.gauge (Printf.sprintf "perf.install_path.%s.words" key)) words;
         [ name; Printf.sprintf "%.0f" words ])
       (install_path_rows ()));

  Bench_util.section "the resident store after 4,000 library installs";
  let words = resident_words 4_000 in
  Printf.printf "  %d words reachable from the store's live state\n" words;
  Metrics.set (Metrics.gauge "perf.store.resident_words.n4000") (float_of_int words);

  Bench_util.section
    "the memo lookup of the next circuit composition (a miss and a hit), \
     after F flows through one device model";
  Bench_util.print_table [ "prior flows"; "us"; "alloc words" ]
    (List.map
       (fun flows ->
         let us, words = memo_lookups flows in
         let gauge name v =
           Metrics.set
             (Metrics.gauge (Printf.sprintf "perf.memo.f%d.%s" flows name))
             v
         in
         gauge "us" us;
         gauge "alloc_words" words;
         [ string_of_int flows; Printf.sprintf "%.2f" us;
           Printf.sprintf "%.0f" words ])
       memo_flows)
;

  Bench_util.section "the simulator tool: one Performance.analyze";
  Bench_util.print_table [ "case"; "us"; "alloc words" ]
    (List.map
       (fun (key, name, us, words) ->
         let gauge unit v =
           Metrics.set
             (Metrics.gauge (Printf.sprintf "perf.analyze.%s.%s" key unit))
             v
         in
         gauge "us" us;
         gauge "alloc_words" words;
         [ name; Printf.sprintf "%.1f" us; Printf.sprintf "%.0f" words ])
       (analyze_rows ()))
