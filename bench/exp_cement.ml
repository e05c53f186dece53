(* Experiment C: tiered cemented history and streaming bootstrap.

   Three questions about the cold tier:

     - replay scaling: how long a restart takes as the journaled
       history grows, for a journal that never compacts (wal replay is
       linear in history) vs one that compacted into cement (snapshot
       load + segment scan — flat, with the full history still
       addressable by seqno);
     - the cold tier itself: how much resident memory payload eviction
       releases, and what a positioned cold read costs;
     - follower bootstrap: wall time and peak-heap growth of a
       streamed snapshot (bounded 256 KiB chunks spooled to disk);
     - compaction I/O: the bytes one 512-frame compaction writes
       (frames, checkpoint, index) and its wall time;
     - checkpoint I/O: the checkpoint bytes sixteen seals write through
       the checkpoint policy, against the final checkpoint's size, and
       a restart at the longest lag the policy allows, its time and
       the words it allocates.

   Everything is exported as gauges for --json. *)

open Ddf
module E = Standard_schemas.E

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-bench-cement-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let word_bytes = Sys.word_size / 8
let mib w = float_of_int (w * word_bytes) /. (1024.0 *. 1024.0)

(* One light journal entry: a distinct stimuli install (distinct nets,
   so payloads are not deduplicated away by content hash). *)
let stim i =
  Eda.Stimuli.exhaustive (List.init 5 (fun k -> Printf.sprintf "n%d_%d" i k))

(* [n] install entries: state grows with history (the eviction
   workload — every entry leaves a resident payload behind). *)
let populate_installs ctx n =
  let w = Workspace.of_session (Session.of_context ctx) in
  for i = 1 to n do
    ignore
      (Workspace.install_stimuli w ~label:(Printf.sprintf "s%d" i) (stim i))
  done

(* [n] history entries over BOUNDED state: a small working set of
   instances annotated over and over — the shape cement targets, where
   the journal grows without the database growing.  Uncompacted, a
   restart replays all [n] frames; compacted, it loads a constant-size
   snapshot (and the history stays addressable in cement). *)
let populate_history ctx n =
  let w = Workspace.of_session (Session.of_context ctx) in
  let base = 20 in
  let iids =
    Array.init base (fun i ->
        Workspace.install_stimuli w ~label:(Printf.sprintf "s%d" i) (stim i))
  in
  let store = ctx.Engine.store in
  for i = base + 1 to n do
    Store.annotate store
      iids.(i mod base)
      ~label:(Printf.sprintf "rev%d" i)
      ~comment:"bench revision" ~keywords:[] ()
  done

(* Build a database with [n] entries; [compacted] folds the whole
   history into snapshot + cement before closing. *)
let build ~style ~compacted n =
  let dir = fresh_dir () in
  let j = Journal.open_ ~dir Standard_schemas.odyssey in
  style (Journal.context j) n;
  if compacted then Journal.compact j;
  Journal.close j;
  dir

let reopen_us dir =
  Bench_util.time_us ~runs:3 (fun () ->
      let j = Journal.open_ ~dir Standard_schemas.odyssey in
      let seq = Journal.seq j in
      Journal.close j;
      seq)

(* Resident live words with the database open (and optionally its cold
   payloads evicted) — the restart memory footprint. *)
let live_words ~evict dir =
  let j = Journal.open_ ~dir Standard_schemas.odyssey in
  if evict then ignore (Journal.evict_cold j);
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  Journal.close j;
  live

let sizes = [ 500; 1_000; 2_000; 4_000; 8_000 ]

let replay_scaling () =
  Bench_util.section
    "replay scaling: restart cost vs history length, bounded state \
     (median of 3)";
  let rows =
    List.map
      (fun n ->
        let wal_dir = build ~style:populate_history ~compacted:false n in
        let cem_dir = build ~style:populate_history ~compacted:true n in
        let wal_us = reopen_us wal_dir in
        let cem_us = reopen_us cem_dir in
        let wal_live = live_words ~evict:false wal_dir in
        let cem_live = live_words ~evict:true cem_dir in
        let segs, bytes =
          let j = Journal.open_ ~dir:cem_dir Standard_schemas.odyssey in
          let r =
            match Journal.cement_stats j with
            | Some (s, b, _, _) -> (s, b)
            | None -> (0, 0)
          in
          Journal.close j;
          r
        in
        Metrics.set
          (Metrics.gauge (Printf.sprintf "cement.bench.replay_wal_us_%d" n))
          wal_us;
        Metrics.set
          (Metrics.gauge (Printf.sprintf "cement.bench.replay_cem_us_%d" n))
          cem_us;
        rm_rf wal_dir;
        rm_rf cem_dir;
        [ string_of_int n;
          Printf.sprintf "%.1f" (wal_us /. 1000.0);
          Printf.sprintf "%.1f" (cem_us /. 1000.0);
          Printf.sprintf "%.1f" (mib wal_live);
          Printf.sprintf "%.1f" (mib cem_live);
          string_of_int segs;
          Printf.sprintf "%.1f" (float_of_int bytes /. 1024.0) ])
      sizes
  in
  Bench_util.print_table
    [ "entries"; "wal replay ms"; "cemented ms"; "wal live MiB";
      "evicted live MiB"; "segments"; "cement KiB" ]
    rows

let cold_tier () =
  Bench_util.section "cold tier: eviction and positioned reads";
  let n = List.nth sizes (List.length sizes - 1) in
  let dir = build ~style:populate_installs ~compacted:true n in
  let j = Journal.open_ ~dir Standard_schemas.odyssey in
  (* a reopened checkpoint starts with every payload cold: read them
     all back first, so eviction has resident payloads to release *)
  let store = Store.snapshot (Journal.context j).Engine.store in
  List.iter
    (fun iid -> ignore (Store.Snapshot.payload store iid))
    (Store.Snapshot.all_instances store);
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let evicted = Journal.evict_cold j in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let seq = Journal.seq j in
  (* positioned reads across the whole cemented window, cold cache *)
  let reads = 200 in
  let read_us =
    Bench_util.time_us ~runs:3 (fun () ->
        for i = 1 to reads do
          ignore (Journal.cold_frame j (1 + (i * 7 mod seq)))
        done)
    /. float_of_int reads
  in
  Journal.close j;
  rm_rf dir;
  Printf.printf
    "  evicted %d payloads, releasing %.1f MiB of resident heap\n"
    evicted
    (mib (max 0 (before - after)));
  Printf.printf "  cold frame read: %.1f us (index lookup + pread + checksum)\n"
    read_us;
  Metrics.set (Metrics.gauge "cement.bench.evicted") (float_of_int evicted);
  Metrics.set (Metrics.gauge "cement.bench.evicted_mib")
    (mib (max 0 (before - after)));
  Metrics.set (Metrics.gauge "cement.bench.cold_read_us") read_us

(* Follower bootstrap: one deep, compacted primary; subscribe from
   seqno 0 and stream the snapshot. *)
let bootstrap () =
  let n = 400 in
  (* heavyweight payloads (256-vector stimuli, ~20 KiB each) so the
     snapshot is a few MiB: a resident copy would show in the heap *)
  let big_stim i =
    Eda.Stimuli.exhaustive (List.init 8 (fun k -> Printf.sprintf "b%d_%d" i k))
  in
  Bench_util.section
    (Printf.sprintf "follower bootstrap: %d-install streamed snapshot" n);
  let root = fresh_dir () in
  Unix.mkdir root 0o755;
  let psock = Filename.concat root "p.sock" in
  let p =
    Server.start
      ~seed:(fun ctx -> ignore (Workspace.of_session (Session.of_context ctx)))
      ~db:(Filename.concat root "p")
      ~socket:psock Standard_schemas.odyssey
  in
  Client.with_client ~user:"bench-writer" ~socket:psock (fun cp ->
      for i = 1 to n do
        ignore
          (Client.install cp ~entity:E.stimuli
             ~label:(Printf.sprintf "s%d" i)
             (Codec.value_to_sexp (Value.Stimuli (big_stim i))))
      done;
      Client.compact cp);
  (* The bootstrap runs in a forked child so its heap growth is the
     follower's alone — in-process the server's chunk encoding would
     drown the number being measured.  The child compacts its
     inherited heap first, so any later growth is caused by the
     bootstrap itself. *)
  let bootstrap_once () =
    let result = Filename.concat root "boot.out" in
    match Unix.fork () with
    | 0 ->
      let status =
        try
          Gc.compact ();
          let base = (Gc.stat ()).Gc.live_words in
          (* live words at the handoff point — the follower's resident
             requirement when it owns the complete snapshot: the state
             is a spool file on disk, and mid-flight at most one chunk
             is in memory by construction *)
          let peak = ref base in
          let sample () = peak := max !peak (Gc.stat ()).Gc.live_words in
          let t0 = Unix.gettimeofday () in
          let feed =
            Replica.Feed.connect ~spool:root ~socket:psock ~since:0 ()
          in
          let bytes =
            match Replica.Feed.next feed with
            | Replica.Feed.Snapshot_file { path; _ } ->
              Gc.full_major ();
              sample ();
              let b = (Unix.stat path).Unix.st_size in
              Sys.remove path;
              b
            | Replica.Feed.Frame _ -> failwith "expected a snapshot event"
          in
          Replica.Feed.close feed;
          let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          let oc = open_out result in
          Printf.fprintf oc "%d %f %d\n" bytes wall_ms (!peak - base);
          close_out oc;
          0
        with _ -> 1
      in
      Unix._exit status
    | pid ->
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "bootstrap child failed");
      let ic = open_in result in
      let line = input_line ic in
      close_in ic;
      Sys.remove result;
      Scanf.sscanf line "%d %f %d" (fun bytes wall_ms grew ->
          (bytes, wall_ms, grew))
  in
  let s_bytes, s_ms, s_grew = bootstrap_once () in
  Server.stop p;
  Server.wait p;
  rm_rf root;
  Printf.printf
    "  snapshot %.1f KiB; chunk size %d KiB\n"
    (float_of_int s_bytes /. 1024.0)
    (Wire.snapshot_chunk_bytes / 1024);
  Printf.printf
    "  streamed: %.1f ms, peak live growth %.2f MiB (spooled to disk)\n"
    s_ms (mib s_grew);
  Metrics.set (Metrics.gauge "cement.bench.snapshot_bytes")
    (float_of_int s_bytes);
  Metrics.set (Metrics.gauge "cement.bench.stream_ms") s_ms;
  Metrics.set (Metrics.gauge "cement.bench.stream_heap_mib") (mib s_grew)

(* Bytes this process has passed to write(2) so far ([wchar] in
   /proc/self/io); [None] where the kernel does not report it. *)
let written_bytes () =
  match In_channel.with_open_text "/proc/self/io" In_channel.input_all with
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "wchar:"; n ] -> int_of_string_opt n
        | _ -> None)
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

let file_size path = (Unix.stat path).Unix.st_size

(* One compaction of a 512-frame wal (512 stimuli installs on top of
   the previous rounds), five rounds.  The bytes it writes are read
   from the kernel's count, not from the journal: what the checkpoint
   and the segment's index hold is subtracted, and what is left is
   frame bytes written again. *)
let compaction_io () =
  let frames = 512 and rounds = 5 in
  Bench_util.section
    (Printf.sprintf "compaction I/O: one %d-frame compaction (%d rounds)"
       frames rounds);
  let dir = fresh_dir () in
  let j = Journal.open_ ~compact_every:1_000_000 ~dir Standard_schemas.odyssey in
  let w = Workspace.of_session (Session.of_context (Journal.context j)) in
  let samples =
    List.init rounds (fun r ->
        for i = 1 to frames do
          let k = (r * frames) + i in
          ignore
            (Workspace.install_stimuli w ~label:(Printf.sprintf "s%d" k) (stim k))
        done;
        Journal.sync j;
        let wal = file_size (Filename.concat dir "wal.ddf") in
        let first = Journal.base_seq j + 1 and last = Journal.seq j in
        let w0 = written_bytes () in
        let t0 = Unix.gettimeofday () in
        Journal.compact j;
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let w1 = written_bytes () in
        let ckpt = file_size (Filename.concat dir "snapshot.ddf") in
        let idx =
          file_size
            (Filename.concat dir
               (Printf.sprintf "cemented/segment-%012d-%012d.idx" first last))
        in
        let written =
          match (w0, w1) with Some a, Some b -> b - a | _ -> -1
        in
        (wal, written, ckpt, idx, written - ckpt - idx, ms))
  in
  Journal.close j;
  rm_rf dir;
  let mean f =
    List.fold_left (fun acc x -> acc + f x) 0 samples / List.length samples
  in
  let ms =
    List.nth
      (List.sort compare (List.map (fun (_, _, _, _, _, ms) -> ms) samples))
      (rounds / 2)
  in
  let wal = mean (fun (w, _, _, _, _, _) -> w)
  and written = mean (fun (_, w, _, _, _, _) -> w)
  and ckpt = mean (fun (_, _, c, _, _, _) -> c)
  and idx = mean (fun (_, _, _, i, _, _) -> i)
  and frame_bytes = mean (fun (_, _, _, _, f, _) -> f) in
  Bench_util.print_table
    [ "wal B"; "written B"; "frames B"; "checkpoint B"; "idx B"; "ms (median)" ]
    [ [ string_of_int wal; string_of_int written; string_of_int frame_bytes;
        string_of_int ckpt; string_of_int idx; Printf.sprintf "%.2f" ms ] ];
  List.iter
    (fun (name, v) ->
      Metrics.set (Metrics.gauge ("cement.bench.compact_" ^ name)) v)
    [ ("wal_bytes", float_of_int wal);
      ("written_bytes", float_of_int written);
      ("frame_bytes", float_of_int frame_bytes);
      ("checkpoint_bytes", float_of_int ckpt);
      ("idx_bytes", float_of_int idx); ("ms", ms) ]


(* Sixteen seal intervals of 512 stimuli installs, [maybe_compact]
   after each install as the server's writer runs it after each job.
   A checkpoint is written only once the sealed tail is as long as the
   prefix it covers, so of the sixteen seals those at 512 * 2^k write
   one.  The checkpoint bytes are the kernel's count of what the
   compactions wrote, less each new segment's index, summed and set
   against the final checkpoint's size: a
   checkpoint rewritten at every seal reads about 8.5 there, one
   written at the doubling points under 2.  Then the restart time at
   the longest lag the policy allows (after fifteen seals: the
   checkpoint covers 4,096 entries, the sealed tail 3,584 more), next
   to a restart of the same database from a checkpoint at that seq,
   and the words one lagging restart allocates (a count that does not
   depend on the host's speed). *)
let checkpoint_io () =
  let every = 512 and intervals = 16 in
  Bench_util.section
    (Printf.sprintf
       "checkpoint I/O: %d seals of %d installs through maybe_compact" intervals
       every);
  let run dir ~from ~upto =
    let j = Journal.open_ ~compact_every:every ~dir Standard_schemas.odyssey in
    let ctx = Journal.context j in
    let bytes = ref (Some 0) in
    for r = from to upto do
      for i = 1 to every do
        let k = ((r - 1) * every) + i in
        ignore
          (Engine.install ctx ~entity:E.stimuli ~label:(Printf.sprintf "s%d" k)
             (Value.Stimuli (stim k)));
        if i < every && Journal.maybe_compact j then
          failwith "checkpoint_io: a seal before its interval ended"
      done;
      let first = Journal.base_seq j + 1 and last = Journal.seq j in
      (* the write job that ends here flushes its frames before the
         server's [maybe_compact], so the seal writes none of them *)
      Journal.flush j;
      let w0 = written_bytes () in
      if not (Journal.maybe_compact j) then failwith "checkpoint_io: no seal";
      let w1 = written_bytes () in
      let idx =
        file_size
          (Filename.concat dir
             (Printf.sprintf "cemented/segment-%012d-%012d.idx" first last))
      in
      bytes :=
        match (!bytes, w0, w1) with
        | Some n, Some a, Some b -> Some (n + (b - a - idx))
        | _ -> None
    done;
    Journal.close j;
    (* -1 where the kernel does not count written bytes *)
    Option.value !bytes ~default:(-1)
  in
  let lagging = fresh_dir () and fresh = fresh_dir () in
  let before_lag = run lagging ~from:1 ~upto:(intervals - 1) in
  (* the same database at the lagging seq, then a fresh checkpoint *)
  ignore (run fresh ~from:1 ~upto:(intervals - 1));
  let j = Journal.open_ ~dir:fresh Standard_schemas.odyssey in
  Journal.compact j;
  Journal.close j;
  (* the two restarts alternate, so a drift in the host's speed falls
     on both; a restarted daemon starts with an empty heap, so the
     garbage the builds left is compacted away first *)
  Gc.compact ();
  let restart_ms dir =
    let t0 = Unix.gettimeofday () in
    Journal.close (Journal.open_ ~dir Standard_schemas.odyssey);
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let times = List.init 9 (fun _ -> (restart_ms lagging, restart_ms fresh)) in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let lag_ms = median (List.map fst times)
  and fresh_ms = median (List.map snd times) in
  let lag_words =
    Metrics.alloc_words (fun () ->
        Journal.close (Journal.open_ ~dir:lagging Standard_schemas.odyssey))
  in
  rm_rf fresh;
  let last = run lagging ~from:intervals ~upto:intervals in
  let written = if before_lag < 0 || last < 0 then -1 else before_lag + last in
  let final = file_size (Filename.concat lagging "snapshot.ddf") in
  rm_rf lagging;
  let ratio = float_of_int written /. float_of_int final in
  Bench_util.print_table
    [ "checkpoint B written"; "final checkpoint B"; "ratio";
      "restart ms, lagging"; "restart ms, fresh checkpoint";
      "lagging restart words" ]
    [ [ string_of_int written; string_of_int final; Printf.sprintf "%.2f" ratio;
        Printf.sprintf "%.2f" lag_ms; Printf.sprintf "%.2f" fresh_ms;
        Printf.sprintf "%.0f" lag_words ] ];
  List.iter
    (fun (name, v) ->
      Metrics.set (Metrics.gauge ("cement.bench.checkpoint_" ^ name)) v)
    [ ("written_bytes", float_of_int written);
      ("final_bytes", float_of_int final); ("io_ratio", ratio);
      ("restart_lag_ms", lag_ms); ("restart_fresh_ms", fresh_ms);
      ("restart_lag_words", lag_words) ]

(* Bootstrap first: the top-of-heap checkpoints it takes are monotone,
   so it must run before the other phases warm the heap up. *)
let run () =
  bootstrap ();
  replay_scaling ();
  cold_tier ();
  compaction_io ();
  checkpoint_io ()
