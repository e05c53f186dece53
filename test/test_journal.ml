(* The write-ahead journal: durable replay, torn-tail crash recovery,
   snapshot compaction. *)

open Ddf
module E = Standard_schemas.E
module Disk = Ddf_disk.Disk

let dir_counter = ref 0

(* A fresh scratch database directory per test. *)
let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-journal-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Resync [j] from an in-memory save, through the spool file a
   streamed bootstrap would have written. *)
let reset_to_snapshot j ~seq data =
  let path = Filename.temp_file ~temp_dir:(Journal.dir j) "reset" ".spool" in
  Out_channel.with_open_bin path (fun oc -> output_string oc data);
  Journal.reset_to_snapshot_file j ~seq path

(* The whole durable surface in one comparable string: instances with
   meta-data and payloads, history records, the clock.  The session
   [user] header is per-connection identity, not durable state (a
   server rebinds it on every mutation), so it is normalized out. *)
let state ctx = Persist.save (Session.of_context { ctx with Engine.user = "_" })

(* Drive a journaled context through the kind of work a session does:
   tool installs (via the workspace wrapper), netlist installs, edit
   tasks through the engine, annotations. Returns the version chain. *)
let activity ?(seed = 7) ctx n =
  let w = Workspace.of_session (Session.of_context ctx) in
  let v0 =
    Workspace.install_netlist w
      (Eda.Circuits.random ~n_inputs:3 ~n_gates:6 (Eda.Rng.create seed))
  in
  let versions = ref [ v0 ] in
  for i = 1 to n do
    let base = List.hd !versions in
    let es =
      Workspace.install_editor_session w
        (Eda.Edit_script.create
           ~name:(Printf.sprintf "e%d" i)
           [ Eda.Edit_script.Rename (Printf.sprintf "v%d" i) ])
    in
    let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
    let g, fresh = Task_graph.expand g out in
    let editor, src =
      match fresh with [ a; b ] -> (a, b) | _ -> assert false
    in
    let run =
      Engine.execute (Workspace.ctx w) g
        ~bindings:[ (editor, es); (src, base) ]
    in
    versions := Engine.result_of run out :: !versions
  done;
  !versions

let reopened_equals dir reference =
  let j = Journal.open_ ~dir Standard_schemas.odyssey in
  let s = state (Journal.context j) in
  Journal.close j;
  Alcotest.(check string) "replayed state" reference s

let basics =
  [
    Alcotest.test_case "replay reconstructs the context" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 5);
        Store.annotate ctx.Engine.store 1 ~label:"renamed" ~comment:"note"
          ~keywords:[ "k1"; "k2" ] ();
        let before = state ctx in
        Journal.close j;
        reopened_equals dir before);
    Alcotest.test_case "replay restores ticks and clock" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 3);
        let ticks ctx =
          let v = Engine.pin ctx in
          ( Store.Snapshot.tick v.Engine.v_store,
            History.Snapshot.tick v.Engine.v_history )
        in
        let st, ht = ticks ctx and clock = ctx.Engine.clock in
        Journal.close j;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        let st', ht' = ticks ctx in
        Alcotest.(check int) "store tick" st st';
        Alcotest.(check int) "history tick" ht ht';
        Alcotest.(check int) "clock" clock ctx.Engine.clock;
        (* and new ids continue densely after the replay *)
        let iid =
          Engine.install ctx ~entity:E.stimuli ~label:"more"
            (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))
        in
        Alcotest.(check int) "next iid" st iid;
        Journal.close j);
    Alcotest.test_case "abandoned journal (crash) still replays" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        (* no [close], no fsync: mimic a killed process.  Appends are
           flushed per entry, so everything written must replay. *)
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 4);
        let before = state ctx in
        reopened_equals dir before);
  ]

let torn_tail =
  [
    Alcotest.test_case "torn tail is truncated, prefix survives" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 3);
        let before = state ctx in
        Journal.close j;
        (* half an entry at the end: a frame header promising more
           bytes than exist *)
        let wal = Filename.concat dir "wal.ddf" in
        let oc = open_out_gen [ Open_append ] 0o644 wal in
        output_string oc "J1 5000 0123456789abcdef0123456789abcdef\n(put";
        close_out oc;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check bool) "tail dropped" true (Journal.truncated_on_open j > 0);
        Alcotest.(check string) "prefix state" before (state (Journal.context j));
        (* the journal stays writable after recovery *)
        ignore
          (Engine.install (Journal.context j) ~entity:E.stimuli ~label:"after"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])));
        let after = state (Journal.context j) in
        Journal.close j;
        reopened_equals dir after);
    Alcotest.test_case "a header claiming a terabyte is a torn tail" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (activity (Journal.context j) 2);
        let before = state (Journal.context j) in
        Journal.close j;
        (* a damaged length must be refused before anything is
           allocated for it *)
        let oc =
          open_out_gen [ Open_append ] 0o644 (Filename.concat dir "wal.ddf")
        in
        output_string oc "J1 1099511627776 0123456789abcdef0123456789abcdef\np";
        close_out oc;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check bool) "tail dropped" true (Journal.truncated_on_open j > 0);
        Alcotest.(check string) "prefix state" before (state (Journal.context j));
        Journal.close j);
    Alcotest.test_case "corrupted checksum in the tail is dropped" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore
          (Engine.install ctx ~entity:E.stimuli ~label:"one"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])));
        let before = state ctx in
        let wal = Filename.concat dir "wal.ddf" in
        let size = (Unix.stat wal).Unix.st_size in
        ignore
          (Engine.install ctx ~entity:E.stimuli ~label:"two"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "b" ])));
        Journal.close j;
        (* flip one payload byte of the last entry *)
        let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0 in
        ignore (Unix.lseek fd (size + 40) Unix.SEEK_SET);
        ignore (Unix.write fd (Bytes.of_string "#") 0 1);
        Unix.close fd;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check bool) "tail dropped" true (Journal.truncated_on_open j > 0);
        Alcotest.(check string) "prefix state" before (state (Journal.context j));
        Journal.close j);
  ]

let compaction =
  [
    Alcotest.test_case "compact folds the log into the snapshot" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 4);
        let before = state ctx in
        Journal.compact j;
        Alcotest.(check int) "log emptied" 0 (Journal.entries_since_snapshot j);
        Alcotest.(check bool) "snapshot exists" true
          (Sys.file_exists (Filename.concat dir "snapshot.ddf"));
        (* post-compaction writes land in the fresh log *)
        ignore (activity ~seed:99 ctx 2);
        let after = state ctx in
        Alcotest.(check bool) "state advanced" true (before <> after);
        Journal.close j;
        reopened_equals dir after);
    Alcotest.test_case "maybe_compact honors the threshold" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j =
          Journal.open_ ~compact_every:5 ~dir Standard_schemas.odyssey
        in
        let ctx = Journal.context j in
        ignore (activity ctx 6);
        (* activity wrote well over 5 entries *)
        Alcotest.(check bool) "over threshold" true
          (Journal.entries_since_snapshot j >= 5);
        Alcotest.(check bool) "compacted" true (Journal.maybe_compact j);
        Alcotest.(check int) "log emptied" 0 (Journal.entries_since_snapshot j);
        Alcotest.(check bool) "below threshold now" false
          (Journal.maybe_compact j);
        let final = state ctx in
        Journal.close j;
        reopened_equals dir final);
    Alcotest.test_case "torn snapshot write (.tmp) is ignored on open" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (activity (Journal.context j) 3);
        Journal.compact j;
        let final = state (Journal.context j) in
        Journal.close j;
        (* a crash mid-compaction leaves a half-written temp file; the
           atomic rename never happened, so replay must not read it *)
        let oc =
          open_out (Filename.concat dir "snapshot.ddf.tmp")
        in
        output_string oc "(store (instances (garbage";
        close_out oc;
        reopened_equals dir final);
    Alcotest.test_case "entries_since at exactly base_seq is the cutover"
      `Quick (fun () ->
        (* the snapshot covers [1..base_seq]: a follower that has
           applied exactly base_seq entries needs Frames [], one entry
           fewer needs a snapshot resync *)
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 2);
        Journal.compact j;
        let base = Journal.base_seq j in
        Alcotest.(check bool) "snapshot base advanced" true (base > 0);
        (match Journal.entries_since j base with
        | Journal.Frames [] -> ()
        | Journal.Frames fs ->
          Alcotest.failf "expected no frames, got %d" (List.length fs)
        | Journal.Snapshot_needed ->
          Alcotest.fail "base_seq itself must not demand a snapshot");
        (match Journal.entries_since j (base - 1) with
        | Journal.Snapshot_needed -> ()
        | Journal.Frames _ ->
          Alcotest.fail "pre-base seqnos were compacted away");
        (* a post-compaction append is served from the fresh wal,
           numbered base+1 *)
        ignore
          (Engine.install ctx ~entity:E.stimuli ~label:"tail"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])));
        (match Journal.entries_since j base with
        | Journal.Frames [ (s, _) ] ->
          Alcotest.(check int) "first wal frame is base+1" (base + 1) s
        | Journal.Frames fs ->
          Alcotest.failf "expected one frame, got %d" (List.length fs)
        | Journal.Snapshot_needed ->
          Alcotest.fail "base_seq itself must not demand a snapshot");
        (* the sync reader no longer hits a wall at the base: cemented
           frames are served by positioned reads, continuing into the
           wal without a seam *)
        (match Journal.frames j ~after:(base - 1) ~limit:10 with
        | (s0, _, _) :: _ as fs ->
          Alcotest.(check int) "cold read starts at base" base s0;
          Alcotest.(check int) "cold read continues into the wal" (base + 1)
            (match List.rev fs with (s, _, _) :: _ -> s | [] -> 0)
        | [] -> Alcotest.fail "cemented frames must be served");
        Journal.close j;
        (* a snapshot resync clears cement: below its base a typed
           `Conflict marks the boundary of what is gone *)
        with_dir @@ fun dir2 ->
        let j2 = Journal.open_ ~dir:dir2 Standard_schemas.odyssey in
        ignore (activity (Journal.context j2) 2);
        let seq, data = Journal.snapshot_state j2 in
        reset_to_snapshot j2 ~seq data;
        let base2 = Journal.base_seq j2 in
        Alcotest.(check int) "resync base" seq base2;
        (match Journal.frames j2 ~after:(base2 - 1) ~limit:10 with
        | _ -> Alcotest.fail "compacted frames must not be served"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "typed `Conflict" true
            (e.Error.code = `Conflict));
        Journal.close j2);
  ]

(* Every payload reads back (cold ones through cement) and hashes to
   the instance's recorded content hash. *)
let payloads_verified ctx =
  let store = Store.snapshot ctx.Engine.store in
  List.iter
    (fun iid ->
      Alcotest.(check string)
        (Printf.sprintf "payload hash of #%d" iid)
        (Store.Snapshot.hash_of store iid)
        (Value.hash (Codec.value_of_text (Store.Snapshot.payload store iid))))
    (Store.Snapshot.all_instances store)

let cold_count ctx =
  let store = Store.snapshot ctx.Engine.store in
  List.length
    (List.filter
       (fun iid -> not (Store.Snapshot.payload_resident store iid))
       (Store.Snapshot.all_instances store))

(* A database with one checkpoint (its payloads referenced in cement)
   and a wal of further work on top. *)
let checkpointed_db dir =
  let j = Journal.open_ ~dir Standard_schemas.odyssey in
  ignore (activity (Journal.context j) 3);
  Journal.compact j;
  ignore (activity ~seed:21 (Journal.context j) 2);
  Store.annotate (Journal.context j).Engine.store 2 ~label:"late" ();
  j

let checkpoint =
  [
    Alcotest.test_case "a restart serves checkpointed payloads from cement"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = checkpointed_db dir in
        Journal.compact j;
        let ctx = Journal.context j in
        let fp = Sync.fingerprint ctx and before = state ctx in
        let store = Store.snapshot ctx.Engine.store in
        let n = Store.Snapshot.instance_count store in
        let phys = Store.Snapshot.physical_count store in
        Journal.close j;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        (* nothing is resident until read; sharing is still counted *)
        Alcotest.(check int) "every payload cold" n (cold_count ctx);
        Alcotest.(check int) "physical count" phys
          (Store.Snapshot.physical_count (Store.snapshot ctx.Engine.store));
        Alcotest.(check string) "fingerprint" fp (Sync.fingerprint ctx);
        payloads_verified ctx;
        Alcotest.(check int) "promoted on read" 0 (cold_count ctx);
        Alcotest.(check string) "state" before (state ctx);
        Journal.close j);
    Alcotest.test_case "every compaction crash point reopens to the same state"
      `Quick (fun () ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        let crash_points =
          [ ("after the seal (the cement tail replays)", "journal.compact", 0);
            ("after the checkpoint rename", "journal.compact", 1);
            ("at the directory fsync", "journal.dir_fsync", 0) ]
        in
        List.iter
          (fun (what, point, after) ->
            with_dir @@ fun dir ->
            let j = checkpointed_db dir in
            Journal.sync j;
            let ctx = Journal.context j in
            let fp = Sync.fingerprint ctx and seq = Journal.seq j in
            Fault.arm ~after point Fault.Fail;
            (match Journal.compact j with
            | () -> Alcotest.failf "%s: expected the injected crash" what
            | exception Fault.Injected _ -> ());
            Fault.reset ();
            Journal.close j;
            (* after the seal, the frames past the old checkpoint exist
               only as the cement tail *)
            if after = 0 && point = "journal.compact" then
              Alcotest.(check bool) (what ^ ": no wal left") false
                (Sys.file_exists (Filename.concat dir "wal.ddf"));
            let j = Journal.open_ ~dir Standard_schemas.odyssey in
            let ctx = Journal.context j in
            Alcotest.(check string) (what ^ ": fingerprint") fp
              (Sync.fingerprint ctx);
            Alcotest.(check int) (what ^ ": seqno line") seq (Journal.seq j);
            payloads_verified ctx;
            (* the recovered database keeps compacting and reopening *)
            ignore (activity ~seed:31 ctx 1);
            Journal.compact j;
            let after = state ctx in
            Journal.close j;
            reopened_equals dir after)
          crash_points);
    Alcotest.test_case "a checkpoint reference cement lacks fails open, typed"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = checkpointed_db dir in
        Journal.compact j;
        Journal.close j;
        rm_rf (Filename.concat dir "cemented");
        match Journal.open_ ~dir Standard_schemas.odyssey with
        | j ->
          Journal.close j;
          Alcotest.fail "expected open to refuse the dangling reference"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "names the iid" true
            (Util.contains (Error.message e) "instance 1:"));
    Alcotest.test_case "an s-expression checkpoint is refused at open and at resync"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let old = "(ddf_workspace\n (version 2)\n (user u)\n (clock 0))\n" in
        let expect_refusal f =
          match f () with
          | _ -> Alcotest.fail "expected the s-expression checkpoint to be refused"
          | exception Error.Ddf_error e ->
            Alcotest.(check bool) "typed `Invalid" true (e.Error.code = `Invalid);
            Alcotest.(check bool) "names the format" true
              (Util.contains e.Error.message "checkpoint format 2 (s-expression)")
        in
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (activity (Journal.context j) 2);
        let before = state (Journal.context j) in
        expect_refusal (fun () -> reset_to_snapshot j ~seq:99 old);
        Alcotest.(check string) "the database is untouched" before
          (state (Journal.context j));
        Journal.close j;
        Out_channel.with_open_bin (Filename.concat dir "snapshot.ddf") (fun oc ->
            output_string oc old);
        expect_refusal (fun () -> Journal.open_ ~dir Standard_schemas.odyssey));
  ]

(* The checkpoint lags the seal: [maybe_compact] seals every
   [compact_every] entries but writes a checkpoint only once the sealed
   tail is as long as the prefix the checkpoint covers. *)

(* The seqno the last checkpoint covers, as its header names it. *)
let base_of dir =
  let module L = Ddf_wire.Layout in
  let r =
    L.reader ~head:"DDFC"
      (In_channel.with_open_bin (Filename.concat dir "snapshot.ddf")
         In_channel.input_all)
  in
  let _format, (_user, (_clock, (seq, _from))) =
    L.read L.(Int ** Str ** Int ** Int ** Int) r
  in
  seq

let m_checkpoints = Metrics.counter "journal.checkpoints"

(* One distinct stimuli install: one put entry. *)
let install_stim ctx k =
  Engine.install ctx ~entity:E.stimuli ~label:(Printf.sprintf "q%d" k)
    (Value.Stimuli (Eda.Stimuli.exhaustive [ Printf.sprintf "qa%d" k ]))

(* A checkpointed database at [compact_every:5] with [n] stimuli
   installed on top, [maybe_compact] after each: returns the journal,
   the checkpoint's seqno and the iids the seals cemented past it. *)
let lagging_db ?(n = 12) dir =
  let j = Journal.open_ ~compact_every:5 ~dir Standard_schemas.odyssey in
  let ctx = Journal.context j in
  ignore (activity ctx 6);
  Journal.compact j;
  let checkpoint = Journal.seq j in
  let sealed = ref [] and pending = ref [] in
  let checkpoints = Metrics.count m_checkpoints in
  for k = 1 to n do
    pending := install_stim ctx k :: !pending;
    if Journal.maybe_compact j then begin
      sealed := !pending @ !sealed;
      pending := []
    end
  done;
  Alcotest.(check int) "the seals wrote no checkpoint" checkpoints
    (Metrics.count m_checkpoints);
  Alcotest.(check int) "the checkpoint stays" checkpoint
    (base_of dir);
  (j, checkpoint, !sealed)

let lagging =
  [
    Alcotest.test_case "checkpoints land at the doubling points; compact always writes one"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~compact_every:5 ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        let iid = install_stim ctx 0 in
        let seals = ref 0 and checkpoints = ref [] in
        for k = 1 to 99 do
          (* one entry each *)
          Store.annotate ctx.Engine.store iid ~label:(Printf.sprintf "l%d" k) ();
          let before = Metrics.count m_checkpoints in
          if Journal.maybe_compact j then begin
            incr seals;
            Alcotest.(check int) "a seal every 5 entries" 0 (Journal.seq j mod 5);
            Alcotest.(check int) "the wal starts over" 0
              (Journal.entries_since_snapshot j);
            if Metrics.count m_checkpoints > before then begin
              checkpoints := Journal.seq j :: !checkpoints;
              Alcotest.(check int) "the checkpoint names it" (Journal.seq j)
                (base_of dir)
            end
          end
        done;
        Alcotest.(check int) "seals" 20 !seals;
        Alcotest.(check (list int)) "checkpoints at 5 * 2^k" [ 5; 10; 20; 40; 80 ]
          (List.rev !checkpoints);
        Alcotest.(check int) "the base lags at the last doubling point" 80
          (base_of dir);
        (* an explicit compact writes one, right after a seal and with
           an empty wal alike *)
        List.iter
          (fun what ->
            let before = Metrics.count m_checkpoints in
            Journal.compact j;
            Alcotest.(check int) (what ^ ": one checkpoint") (before + 1)
              (Metrics.count m_checkpoints);
            Alcotest.(check int) (what ^ ": its seq") (Journal.seq j)
              (base_of dir))
          [ "after a seal"; "empty wal" ];
        let final = state ctx in
        Journal.close j;
        reopened_equals dir final);
    Alcotest.test_case "every seal-only compaction crash point reopens to the same state"
      `Quick (fun () ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        let crash_points =
          [ ("after the seal", "journal.compact", 0);
            ("at the directory fsync", "journal.dir_fsync", 0) ]
        in
        List.iter
          (fun (what, point, after) ->
            with_dir @@ fun dir ->
            let j, checkpoint, _ = lagging_db ~n:7 dir in
            (* two entries in the wal: three more make a seal due *)
            let ctx = Journal.context j in
            List.iter (fun k -> ignore (install_stim ctx k)) [ 100; 101; 102 ];
            Journal.sync j;
            let fp = Sync.fingerprint ctx and seq = Journal.seq j in
            Fault.arm ~after point Fault.Fail;
            (match Journal.maybe_compact j with
            | _ -> Alcotest.failf "%s: expected the injected crash" what
            | exception Fault.Injected _ -> ());
            Fault.reset ();
            Journal.close j;
            Alcotest.(check int) (what ^ ": no checkpoint written") checkpoint
              (base_of dir);
            let j = Journal.open_ ~compact_every:5 ~dir Standard_schemas.odyssey in
            let ctx = Journal.context j in
            Alcotest.(check string) (what ^ ": fingerprint") fp
              (Sync.fingerprint ctx);
            Alcotest.(check int) (what ^ ": seqno line") seq (Journal.seq j);
            payloads_verified ctx;
            (* the recovered database keeps sealing and reopening *)
            for k = 200 to 210 do
              ignore (install_stim ctx k);
              ignore (Journal.maybe_compact j)
            done;
            let after = state ctx in
            Journal.close j;
            reopened_equals dir after)
          crash_points);
    Alcotest.test_case "a reopen holds the puts sealed past the checkpoint cold"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j, _, sealed = lagging_db dir in
        let ctx = Journal.context j in
        let fp = Sync.fingerprint ctx and before = state ctx in
        let n =
          Store.Snapshot.instance_count (Store.snapshot ctx.Engine.store)
        in
        Journal.close j;
        Alcotest.(check int) "two seals" 10 (List.length sealed);
        let j = Journal.open_ ~compact_every:5 ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        let store = Store.snapshot ctx.Engine.store in
        (* the checkpoint's payloads and the sealed tail's are cold; the
           two installs still in the wal are resident *)
        List.iter
          (fun iid ->
            Alcotest.(check bool) (Printf.sprintf "#%d cold" iid) false
              (Store.Snapshot.payload_resident store iid))
          sealed;
        Alcotest.(check int) "cold: all but the wal's two" (n - 2) (cold_count ctx);
        Alcotest.(check string) "fingerprint" fp (Sync.fingerprint ctx);
        payloads_verified ctx;
        Alcotest.(check string) "state" before (state ctx);
        Journal.close j);
    Alcotest.test_case "a damaged put sealed past the checkpoint fails its first read, typed"
      `Quick (fun () ->
        (* one letter of the victim's value changed in its segment:
           with the frame checksum left as it was, or recomputed so
           that only the content hash tells.  Either way open loads the
           put cold, and the first read of its payload refuses *)
        List.iter
          (fun (reframe, expect) ->
            with_dir @@ fun dir ->
            let j, _, sealed = lagging_db dir in
            Journal.close j;
            let victim = List.nth sealed (List.length sealed - 1) in
            let cdir = Filename.concat dir "cemented" in
            let path =
              Sys.readdir cdir |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".ddf")
              |> List.sort compare |> List.rev |> List.tl |> List.hd
              |> Filename.concat cdir
            in
            let bytes = In_channel.with_open_bin path In_channel.input_all in
            let rec rewrite off =
              let nl = String.index_from bytes off '\n' in
              let header = String.sub bytes off (nl - off) in
              let len = Scanf.sscanf header "J1 %d %s" (fun l _ -> l) in
              let payload = String.sub bytes (nl + 1) len in
              match Entry.decode payload with
              | Entry.Put ({ iid; text; _ } as p) when iid = victim ->
                let text = String.map (function 'q' -> 'z' | c -> c) text in
                let payload = Entry.encode (Entry.Put { p with text }) in
                let header =
                  if reframe then Cement.frame_header payload else header
                in
                let frame = header ^ "\n" ^ payload ^ "\n" in
                Alcotest.(check int) "the frame keeps its length"
                  (nl + len + 2 - off) (String.length frame);
                String.sub bytes 0 off ^ frame
                ^ String.sub bytes (nl + len + 2)
                    (String.length bytes - nl - len - 2)
              | _ -> rewrite (nl + len + 2)
            in
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (rewrite 0));
            let j = Journal.open_ ~dir Standard_schemas.odyssey in
            let store = Store.snapshot (Journal.context j).Engine.store in
            Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
            List.iter
              (fun iid ->
                if iid <> victim then
                  ignore
                    (Codec.value_of_text (Store.Snapshot.payload store iid)))
              sealed;
            match Store.Snapshot.payload store victim with
            | _ -> Alcotest.fail "expected the damaged put to refuse to load"
            | exception Error.Ddf_error e ->
              Alcotest.(check bool) expect true
                (Util.contains (Error.message e) expect))
          [ (false, "frame checksum mismatch");
            (true, "content hash mismatch") ]);
  ]

(* The journaled database against an in-memory oracle: the same random
   installs, edit flows and annotations applied to a plain context,
   with compactions, payload evictions and reopens only on the
   journaled side. *)
type op = Install of int | Flow | Annotate of int * int | Compact | Evict | Reopen

let op_gen =
  QCheck2.Gen.(
    frequency
      [ (4, int_range 0 5 >|= fun k -> Install k);
        (3, pure Flow);
        (3, pair (int_range 0 40) (int_range 0 3) >|= fun (i, k) -> Annotate (i, k));
        (2, pure Compact);
        (1, pure Evict);
        (2, pure Reopen) ])

let apply_op ctx = function
  | Install k ->
    (* few distinct values, so content sharing is exercised *)
    ignore
      (Engine.install ctx ~entity:E.stimuli ~label:(Printf.sprintf "s%d" k)
         (Value.Stimuli (Eda.Stimuli.exhaustive [ Printf.sprintf "n%d" (k mod 3) ])))
  | Flow -> ignore (activity ~seed:3 ctx 1)
  | Annotate (i, k) ->
    let store = ctx.Engine.store in
    let n = Store.Snapshot.instance_count (Store.snapshot store) in
    if n > 0 then
      Store.annotate store ((i mod n) + 1) ~label:(Printf.sprintf "a%d" k) ()
  | Compact | Evict | Reopen -> ()

let oracle_prop =
  Util.qcheck ~count:20 "random work with compactions and reopens matches an oracle"
    QCheck2.Gen.(list_size (int_range 1 25) op_gen)
    (fun ops ->
      with_dir @@ fun dir ->
      let oracle = Engine.create_context Standard_schemas.odyssey in
      let j = ref (Journal.open_ ~compact_every:1_000_000 ~dir Standard_schemas.odyssey) in
      List.iter
        (fun op ->
          apply_op oracle op;
          apply_op (Journal.context !j) op;
          match op with
          | Compact -> Journal.compact !j
          | Evict -> ignore (Journal.evict_cold !j)
          | Reopen ->
            Journal.close !j;
            j := Journal.open_ ~compact_every:1_000_000 ~dir Standard_schemas.odyssey
          | Install _ | Flow | Annotate _ -> ())
        ops;
      let got = state (Journal.context !j) in
      Journal.close !j;
      let reopened =
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let s = state (Journal.context j) in
        Journal.close j;
        s
      in
      let want = state oracle in
      got = want && reopened = want)

(* Keyword installs and keyword-changing annotations, part of them
   folded into the checkpoint and the rest in the wal: the reopened
   store's keyword index, rebuilt by checkpoint load and wal replay,
   answers every keyword browse as a scan does. *)
let keyword_index =
  Alcotest.test_case "a reopened database browses keywords as a scan does"
    `Quick (fun () ->
      with_dir @@ fun dir ->
      let keywords = [ "k1"; "k2"; "k3"; "k4" ] in
      let work ctx ~from =
        let store = ctx.Engine.store in
        for i = from to from + 79 do
          let k j = List.nth keywords ((i + j) mod 4) in
          ignore
            (Engine.install ctx ~entity:E.stimuli
               ~label:(Printf.sprintf "s%d" i)
               ~keywords:(if i mod 5 = 0 then [] else [ k 0; k (i mod 3); k 0 ])
               (Value.Stimuli (Eda.Stimuli.exhaustive [ Printf.sprintf "n%d" i ])));
          (* an earlier instance, the one just installed included *)
          let tick = Store.Snapshot.tick (Store.snapshot store) in
          let earlier n = ((i * n) mod (tick - 1)) + 1 in
          if i mod 3 = 0 then
            Store.annotate store (earlier 7)
              ~keywords:(if i mod 2 = 0 then [] else [ k 1 ]) ();
          if i mod 4 = 0 then
            Store.annotate store (earlier 5) ~label:"same keywords" ()
        done;
        ignore (activity ctx 2)
      in
      let j = Journal.open_ ~dir Standard_schemas.odyssey in
      work (Journal.context j) ~from:0;
      Journal.compact j;
      work (Journal.context j) ~from:80;
      Alcotest.(check bool) "part of the work is in the wal" true
        (Journal.entries_since_snapshot j > 0);
      Journal.close j;
      let j = Journal.open_ ~dir Standard_schemas.odyssey in
      let store = Store.snapshot (Journal.context j).Engine.store in
      Store.Snapshot.check_keyword_index store;
      let filters =
        List.concat_map
          (fun ks ->
            List.map
              (fun f_entities ->
                { Store.any_filter with Store.f_entities; f_keywords = ks })
              [ None; Some [ E.stimuli ]; Some [ E.edited_netlist; E.stimuli ] ])
          ([ "k1"; "k2"; "k3"; "k4"; "k5" ]
           |> List.concat_map (fun k -> [ [ k ]; [ k; "k1" ] ]))
      in
      List.iter
        (fun f ->
          Alcotest.(check (list int)) "browse" (Test_store_history.linear_browse store f)
            (Store.Snapshot.browse store f))
        filters;
      Alcotest.(check bool) "some keyword browse answers" true
        (List.exists (fun f -> Store.Snapshot.browse store f <> []) filters);
      Journal.close j)

(* A schema, with or without the role "base": a record filling it is
   admitted under the first and refused under the second, as when a
   schema edit drops a role that stored records use. *)
let docs_schema ~with_base =
  Schema.create "docs"
    [ Schema.tool "ed" [];
      Schema.entity "doc"
        (Schema.functional "ed"
        :: (if with_base then [ Schema.data ~role:"base" ~optional:true "doc" ]
            else [])) ]

(* One edit record in [ctx], filling the role "base"; returns its rid. *)
let base_record (ctx : Engine.context) =
  let put entity text =
    let value = Value.Blob { blob_kind = "text"; text } in
    Engine.put ctx ~entity ~meta:(Store.meta ~created_at:ctx.Engine.clock ()) value
  in
  let ed = put "ed" "ed" and v0 = put "doc" "v0" and v1 = put "doc" "v1" in
  let r =
    History.add ctx.Engine.history (Store.snapshot ctx.Engine.store)
      ctx.Engine.schema ~task_entity:"doc" ~tool:(Some ed)
      ~inputs:[ ("base", v0) ] ~outputs:[ ("doc", v1) ] ~at:ctx.Engine.clock
  in
  r.History.rid

(* [f] raises the typed refusal of record [rid]. *)
let expect_refusal ~rid f =
  match f () with
  | _ -> Alcotest.fail "the record was admitted"
  | exception Ddf.Error.Ddf_error e ->
    Alcotest.(check string) "code" "invalid" (Ddf.Error.code_to_string e.code);
    let want = Printf.sprintf "record %d breaks the schema's rules" rid in
    if not (Util.contains e.message want && Util.contains e.message "\"base\"")
    then Alcotest.failf "unexpected message %S" e.message

(* Build a database under the full schema, then open it under the one
   that dropped the role. *)
let refused_at_open ~compact =
  with_dir @@ fun dir ->
  let j = Journal.open_ ~dir (docs_schema ~with_base:true) in
  let rid = base_record (Journal.context j) in
  if compact then begin
    Journal.compact j;
    Alcotest.(check int) "the record is in the checkpoint only" 0
      (Journal.entries_since_snapshot j)
  end;
  Journal.close j;
  expect_refusal ~rid (fun () ->
      Journal.open_ ~dir (docs_schema ~with_base:false))

let rules =
  [ Alcotest.test_case "wal replay refuses a record the schema no longer admits"
      `Quick (fun () -> refused_at_open ~compact:false);
    Alcotest.test_case
      "checkpoint load refuses a record the schema no longer admits" `Quick
      (fun () -> refused_at_open ~compact:true) ]

(* The store keeps each value as its text: the bytes a client sent, or
   a derived value's flat print.  The wal carries the same bytes. *)
let put_texts j =
  List.filter_map
    (fun (_, _, payload) ->
      match Entry.decode payload with
      | Entry.Put { iid; text; _ } -> Some (iid, text)
      | _ -> None)
    (Journal.frames j ~after:0 ~limit:100_000)

let resting_text =
  [ Alcotest.test_case "a text install rests as the client's bytes" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        let value = Value.Stimuli (Eda.Stimuli.exhaustive [ "a"; "b"; "c" ]) in
        let text =
          Sexp.to_string ~pretty:true (Codec.value_to_sexp value)
          ^ " ; typed by hand\n"
        in
        Alcotest.(check bool) "the text is not the flat print" true
          (text <> Codec.value_to_text value);
        let iid = Engine.install ctx ~entity:E.stimuli ~text value in
        let store = Store.snapshot ctx.Engine.store in
        Alcotest.(check string) "the store keeps the bytes" text
          (Store.Snapshot.payload store iid);
        Alcotest.(check (option string)) "the wal put carries them" (Some text)
          (List.assoc_opt iid (put_texts j));
        Alcotest.(check bool) "they decode to the value" true
          (Engine.decode store iid = value);
        Journal.close j);
    Alcotest.test_case "a derived value rests as its flat print" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        let versions = activity ctx 3 in
        let derived = List.filteri (fun i _ -> i < 3) versions in
        let puts = put_texts j in
        let store = Store.snapshot ctx.Engine.store in
        List.iter
          (fun iid ->
            let text = Store.Snapshot.payload store iid in
            Alcotest.(check string) "the flat print"
              (Codec.value_to_text (Engine.decode store iid)) text;
            Alcotest.(check string) "it decodes under the same hash"
              (Store.Snapshot.hash_of store iid)
              (Value.hash (Codec.value_of_text text));
            Alcotest.(check (option string)) "the wal put carries it"
              (Some text) (List.assoc_opt iid puts))
          derived;
        Journal.close j);
    Alcotest.test_case "a reopen after a compaction serves the same values"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 3 : Store.iid list);
        let decoded ctx =
          let store = Store.snapshot ctx.Engine.store in
          List.map
            (fun iid ->
              (iid, Codec.value_of_text (Store.Snapshot.payload store iid)))
            (Store.Snapshot.all_instances store)
        in
        let before = decoded ctx in
        Journal.compact j;
        Journal.close j;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        let after = decoded ctx in
        Alcotest.(check int) "every instance" (List.length before)
          (List.length after);
        List.iter2
          (fun (iid, v) (iid', v') ->
            Alcotest.(check int) "the same instance" iid iid';
            Alcotest.(check bool) (Printf.sprintf "the value of #%d" iid) true
              (v = v'
               && Engine.decode (Store.snapshot ctx.Engine.store) iid = v))
          before after;
        Journal.close j) ]

(* The disk layer every journal, cement and checkpoint write goes
   through: a failed step raises and leaves no half-made file behind. *)
let disk =
  [ Alcotest.test_case "a replace whose writer raises leaves the old file" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        Unix.mkdir dir 0o755;
        let path = Filename.concat dir "state.txt" in
        Disk.replace path (fun oc -> output_string oc "v7\n");
        (match
           Disk.replace path (fun oc ->
               output_string oc "v8";
               failwith "writer died")
         with
        | () -> Alcotest.fail "expected the writer's exception"
        | exception Failure _ -> ());
        Alcotest.(check string) "old bytes" "v7\n"
          (In_channel.with_open_bin path In_channel.input_all);
        Alcotest.(check (list string)) "no temporary left" [ "state.txt" ]
          (Array.to_list (Sys.readdir dir)));
    Alcotest.test_case "a directory fsync on a missing directory raises" `Quick
      (fun () ->
        match Disk.fsync_path (fresh_dir ()) with
        | () -> Alcotest.fail "expected the fsync to fail"
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()) ]

let suite =
  [ ("journal",
     basics @ torn_tail @ compaction @ checkpoint @ lagging
     @ [ oracle_prop; keyword_index ]);
    ("journal.disk", disk);
    ("journal.resting_text", resting_text);
    ("journal.rules", rules) ]
