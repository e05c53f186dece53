(* Tiered cold storage and streaming bootstrap: cement segment
   round-trips and torn-tail recovery, the journal's watermark
   behaviour (typed [entries_since] boundary, cold frame reads,
   payload eviction with reload-from-cement), the compaction
   crash-window repair behind the [journal.dir_fsync] fault point, and
   the v7 streamed snapshot paths (feed version matrix, late-follower
   bootstrap, client export). *)

open Ddf
module E = Standard_schemas.E

let with_dir = Test_journal.with_dir
let seed = Test_server.seed

let payload_of seq = Printf.sprintf "(frame %d payload-%d)" seq seq

(* The payloads of seqnos [lo..hi]. *)
let frames_for lo hi = List.init (hi - lo + 1) (fun i -> payload_of (lo + i))

let seal c ~first frames = Util.seal_frames ~first c frames

(* The segment files of a cement directory, oldest first. *)
let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ddf")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let segments =
  [
    Alcotest.test_case "fold, read, iterate, reopen" `Quick (fun () ->
        with_dir @@ fun dir ->
        let c = Cement.open_ ~dir in
        seal c ~first:1 (frames_for 1 3);
        seal c ~first:4 (frames_for 4 6);
        Alcotest.(check int) "segments" 2 (Cement.segment_count c);
        Alcotest.(check int) "first" 1 (Cement.first_seq c);
        Alcotest.(check int) "last" 6 (Cement.last_seq c);
        Alcotest.(check bool) "bytes" true (Cement.total_bytes c > 0);
        Alcotest.(check (option string)) "read" (Some (payload_of 5))
          (Cement.read c 5);
        Alcotest.(check (option string)) "below window" None (Cement.read c 0);
        Alcotest.(check (option string)) "above window" None (Cement.read c 7);
        let seen = ref [] in
        Cement.iter_range c ~from:2 ~upto:5 (fun seq payload ->
            Alcotest.(check string) "iter payload" (payload_of seq) payload;
            seen := seq :: !seen);
        Alcotest.(check (list int)) "iter window" [ 2; 3; 4; 5 ]
          (List.rev !seen);
        Cement.close c;
        (* a fresh open sees the same store *)
        let c2 = Cement.open_ ~dir in
        Alcotest.(check int) "reopened last" 6 (Cement.last_seq c2);
        Alcotest.(check int) "no torn tail" 0 (Cement.truncated_on_open c2);
        Alcotest.(check (option string)) "reopened read" (Some (payload_of 2))
          (Cement.read c2 2);
        Cement.close c2);
    Alcotest.test_case "sealing extends the store contiguously, overlaps and gaps refused"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let c = Cement.open_ ~dir in
        seal c ~first:1 (frames_for 1 4);
        (* a sealed window is never sealed again: the journal replays
           the cemented frames past its base instead *)
        (match seal c ~first:1 (frames_for 1 6) with
        | () -> Alcotest.fail "expected an overlap refusal"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "typed conflict" true (e.Error.code = `Conflict));
        seal c ~first:5 (frames_for 5 6);
        Alcotest.(check int) "extended" 6 (Cement.last_seq c);
        Alcotest.(check (option string)) "old frame intact"
          (Some (payload_of 3)) (Cement.read c 3);
        Alcotest.(check (option string)) "new frame" (Some (payload_of 6))
          (Cement.read c 6);
        (match seal c ~first:9 (frames_for 9 10) with
        | () -> Alcotest.fail "expected a seqno-gap refusal"
        | exception Error.Ddf_error _ -> ());
        Cement.close c);
    Alcotest.test_case "a torn tail on the newest segment truncates on open"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let c = Cement.open_ ~dir in
        seal c ~first:1 (frames_for 1 3);
        seal c ~first:4 (frames_for 4 6);
        Cement.close c;
        (* cut the newest segment mid-frame, like a crash while the
           file system reordered writes *)
        let path = Filename.concat dir "segment-000000000004-000000000006.ddf" in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (size - 5);
        let c2 = Cement.open_ ~dir in
        Alcotest.(check bool) "torn bytes reported" true
          (Cement.truncated_on_open c2 > 0);
        Alcotest.(check int) "window shrank to the good prefix" 5
          (Cement.last_seq c2);
        Alcotest.(check (option string)) "survivor reads" (Some (payload_of 5))
          (Cement.read c2 5);
        Alcotest.(check (option string)) "torn frame gone" None
          (Cement.read c2 6);
        (* the store extends contiguously from the surviving watermark *)
        seal c2 ~first:6 (frames_for 6 7);
        Alcotest.(check (option string)) "refolded" (Some (payload_of 6))
          (Cement.read c2 6);
        Cement.close c2);
    Alcotest.test_case "the newest segment's whole index is trusted, not rescanned"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let c = Cement.open_ ~dir in
        seal c ~first:1 (frames_for 1 3);
        seal c ~first:4 (frames_for 4 6);
        Cement.close c;
        (* damage a frame inside the newest segment, not at its end: a
           rescan would cut the segment back to frame 4, a trusted index
           keeps the window and the read of frame 5 refuses *)
        let path = Filename.concat dir "segment-000000000004-000000000006.ddf" in
        let bytes = In_channel.with_open_bin path In_channel.input_all in
        let needle = payload_of 5 in
        let rec find i =
          if String.sub bytes i (String.length needle) = needle then i
          else find (i + 1)
        in
        let at = find 0 in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              (String.mapi (fun i ch -> if i = at + 1 then 'X' else ch) bytes));
        let c2 = Cement.open_ ~dir in
        Alcotest.(check int) "nothing cut" 0 (Cement.truncated_on_open c2);
        Alcotest.(check int) "the window stands" 6 (Cement.last_seq c2);
        Alcotest.(check (option string)) "frame 6 reads" (Some (payload_of 6))
          (Cement.read c2 6);
        (match Cement.read c2 5 with
        | _ -> Alcotest.fail "expected the damaged frame to refuse"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "a checksum error" true
            (Util.contains e.Error.message "checksum"));
        Cement.close c2);
    Alcotest.test_case "a segment of cement segment format 1 is refused at open"
      `Quick (fun () ->
        (* two segments, one of them rewritten the way format 1 stored
           it: a "C1 <first> <last>" line before a copy of the wal's
           frames, its index offsets shifted past that line.  The newest
           segment is scanned at open, an older one trusted by its
           index: both are refused *)
        List.iter
          (fun pick ->
            with_dir @@ fun dir ->
            let cdir = Filename.concat dir "cemented" in
            let j = Journal.open_ ~dir Standard_schemas.odyssey in
            ignore (Test_journal.activity (Journal.context j) 1);
            Journal.compact j;
            ignore (Test_journal.activity ~seed:5 (Journal.context j) 1);
            Journal.compact j;
            Journal.close j;
            let path = pick (segment_files cdir) in
            let first, last =
              Scanf.sscanf (Filename.basename path) "segment-%d-%d.ddf"
                (fun a b -> (a, b))
            in
            let header = Printf.sprintf "C1 %d %d\n" first last in
            let frames = In_channel.with_open_bin path In_channel.input_all in
            Out_channel.with_open_bin path (fun oc ->
                output_string oc header;
                output_string oc frames);
            let idx = Filename.chop_suffix path ".ddf" ^ ".idx" in
            let lines =
              String.split_on_char '\n'
                (In_channel.with_open_bin idx In_channel.input_all)
            in
            Out_channel.with_open_bin idx (fun oc ->
                output_string oc (List.hd lines ^ "\n");
                List.iter
                  (fun line ->
                    if line <> "" then
                      Scanf.sscanf line "%x %c %d" (fun off kind id ->
                          Printf.fprintf oc "%016x %c %012d\n"
                            (off + String.length header) kind id))
                  (List.tl lines));
            let refused f =
              match f () with
              | _ -> Alcotest.fail "expected the format 1 segment to be refused"
              | exception Error.Ddf_error e ->
                Alcotest.(check bool) "typed `Invalid" true
                  (e.Error.code = `Invalid);
                Alcotest.(check bool) "names the format" true
                  (Util.contains e.Error.message "cement segment format 1")
            in
            refused (fun () -> Cement.open_ ~dir:cdir);
            refused (fun () -> Journal.open_ ~dir Standard_schemas.odyssey);
            (* refused, not repaired: the segment is as it was written *)
            Alcotest.(check int) "segment untouched"
              (String.length header + String.length frames)
              (Unix.stat path).Unix.st_size)
          [ List.hd; (fun l -> List.hd (List.rev l)) ]);
  ]

let journal =
  [
    Alcotest.test_case "entries_since is typed exactly at the watermark"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 2);
        Journal.compact j;
        let base = Journal.base_seq j in
        Alcotest.(check bool) "compacted" true (base > 0);
        (match Journal.cement_stats j with
        | Some (_, _, first, last) ->
          Alcotest.(check int) "cement starts at 1" 1 first;
          Alcotest.(check int) "cement reaches the watermark" base last
        | None -> Alcotest.fail "nothing cemented");
        ignore (Test_journal.activity ~seed:11 ctx 1);
        (* exactly at the watermark: the wal tail suffices *)
        (match Journal.entries_since j base with
        | Journal.Frames ((s0, _) :: _) ->
          Alcotest.(check int) "tail starts past the base" (base + 1) s0
        | Journal.Frames [] -> Alcotest.fail "expected a non-empty tail"
        | Journal.Snapshot_needed -> Alcotest.fail "at the watermark is servable");
        (* one below: those frames are folded away, resync required *)
        (match Journal.entries_since j (base - 1) with
        | Journal.Snapshot_needed -> ()
        | Journal.Frames _ -> Alcotest.fail "below the watermark needs a snapshot");
        (* ...but the cemented history still reads by seqno *)
        Alcotest.(check bool) "cold frame at the watermark" true
          (Journal.cold_frame j base <> None);
        Alcotest.(check bool) "cold frame at 1" true
          (Journal.cold_frame j 1 <> None);
        Alcotest.(check (option string)) "wal seqnos are not cold" None
          (Journal.cold_frame j (base + 1));
        Journal.close j);
    Alcotest.test_case "a compaction seals the wal file itself: same inode, same bytes"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 2);
        let wal = Filename.concat dir "wal.ddf" in
        Journal.sync j;
        let st = Unix.stat wal in
        let bytes = In_channel.with_open_bin wal In_channel.input_all in
        let first = Journal.base_seq j + 1 and last = Journal.seq j in
        let last_payload =
          match Journal.entries_since j (last - 1) with
          | Journal.Frames [ (_, p) ] -> p
          | _ -> Alcotest.fail "expected the wal's last frame"
        in
        Journal.compact j;
        let seg =
          Filename.concat dir
            (Printf.sprintf "cemented/segment-%012d-%012d.ddf" first last)
        in
        let sealed = Unix.stat seg in
        Alcotest.(check int) "the segment is the former wal's inode"
          st.Unix.st_ino sealed.Unix.st_ino;
        Alcotest.(check string) "holding the same bytes" bytes
          (In_channel.with_open_bin seg In_channel.input_all);
        (* the fresh wal is another file, and empty *)
        Alcotest.(check bool) "a new wal" true
          ((Unix.stat wal).Unix.st_ino <> st.Unix.st_ino
          && (Unix.stat wal).Unix.st_size = 0);
        Alcotest.(check (option string)) "the last sealed frame reads cold"
          (Some last_payload) (Journal.cold_frame j last);
        Journal.close j);
    Alcotest.test_case "a resync that crashes around its cement clear reopens to its snapshot"
      `Quick (fun () ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        let seq, seed, fp =
          with_dir @@ fun sdir ->
          let s = Journal.open_ ~dir:sdir Standard_schemas.odyssey in
          ignore (Test_journal.activity ~seed:3 (Journal.context s) 1);
          let seq, seed = Journal.snapshot_state s in
          let fp = Sync.fingerprint (Journal.context s) in
          Journal.close s;
          (seq, seed, fp)
        in
        (* right after the spool's rename, and right after the clear *)
        List.iter
          (fun after ->
            with_dir @@ fun dir ->
            (* a database whose cemented history runs past the seed's
               seqno: left in cement, it would replay as a tail past
               the new base *)
            let j = Journal.open_ ~dir Standard_schemas.odyssey in
            ignore (Test_journal.activity (Journal.context j) 3);
            Journal.compact j;
            Alcotest.(check bool) "cement past the seed" true
              (Journal.base_seq j > seq);
            Fault.arm ~after "journal.dir_fsync" Fault.Fail;
            (match Test_journal.reset_to_snapshot j ~seq seed with
            | () -> Alcotest.fail "expected the injected crash"
            | exception Fault.Injected _ -> ());
            Fault.reset ();
            Journal.close j;
            let j = Journal.open_ ~dir Standard_schemas.odyssey in
            Alcotest.(check int) "seqno line" seq (Journal.seq j);
            Alcotest.(check string) "fingerprint" fp
              (Sync.fingerprint (Journal.context j));
            Alcotest.(check bool) "no cement of the old line" true
              (Journal.cement_stats j = None);
            Journal.close j)
          [ 0; 1 ]);
    Alcotest.test_case
      "a resync whose stream names another seq leaves the database untouched"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let seq, seed =
          with_dir @@ fun sdir ->
          let s = Journal.open_ ~dir:sdir Standard_schemas.odyssey in
          ignore (Test_journal.activity ~seed:3 (Journal.context s) 1);
          let snap = Journal.snapshot_state s in
          Journal.close s;
          snap
        in
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (Test_journal.activity (Journal.context j) 2);
        Journal.compact j;
        ignore (Test_journal.activity ~seed:9 (Journal.context j) 1);
        Journal.sync j;
        let before = Test_journal.state (Journal.context j) in
        let seq0 = Journal.seq j in
        (match Test_journal.reset_to_snapshot j ~seq:(seq + 1) seed with
        | () -> Alcotest.fail "expected the mismatch to be refused"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "typed `Conflict" true (e.Error.code = `Conflict);
          Alcotest.(check bool) "names both seqs" true
            (Util.contains e.Error.message (string_of_int (seq + 1))
            && Util.contains e.Error.message (Printf.sprintf "covers %d" seq)));
        Alcotest.(check bool) "not fail-stopped" true (Journal.failed j = None);
        Alcotest.(check int) "seqno line" seq0 (Journal.seq j);
        Alcotest.(check string) "state" before
          (Test_journal.state (Journal.context j));
        Journal.close j;
        Test_journal.reopened_equals dir before);
    Alcotest.test_case
      "a follower resync that crashes right after its cement clear reopens at \
       the snapshot's seq"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        with_dir @@ fun pdir ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        (* a follower that applied and sealed the head of the primary's
           line, then fell behind the primary's compaction *)
        let p = Journal.open_ ~dir:pdir Standard_schemas.odyssey in
        ignore (Test_journal.activity ~seed:3 (Journal.context p) 2);
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        (match Journal.entries_since p 0 with
        | Journal.Frames frames ->
          List.iter (fun (seq, payload) -> Journal.apply j ~seq payload) frames
        | Journal.Snapshot_needed -> Alcotest.fail "the primary's wal serves 0");
        Journal.compact j;
        ignore (Test_journal.activity ~seed:5 (Journal.context p) 2);
        Journal.compact p;
        let seq, seed = Journal.snapshot_state p in
        let fp = Sync.fingerprint (Journal.context p) in
        Journal.close p;
        Alcotest.(check bool) "the follower's cement ends below the snapshot"
          true
          (match Journal.cement_stats j with
          | Some (_, _, _, last) -> last < seq
          | None -> false);
        (* the resync's second directory fsync follows the clear *)
        Fault.arm ~after:1 "journal.dir_fsync" Fault.Fail;
        (match Test_journal.reset_to_snapshot j ~seq seed with
        | () -> Alcotest.fail "expected the injected crash"
        | exception Fault.Injected _ -> ());
        Fault.reset ();
        Journal.close j;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check int) "seqno line" seq (Journal.seq j);
        Alcotest.(check int) "base" seq (Journal.base_seq j);
        Alcotest.(check string) "fingerprint" fp
          (Sync.fingerprint (Journal.context j));
        Journal.close j);
    Alcotest.test_case
      "a follower resync that crashes right after its spool rename fail-stops \
       and reopens to its snapshot"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        with_dir @@ fun pdir ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        (* a follower that applied the head of the primary's line: its
           wal holds frames the snapshot also covers *)
        let p = Journal.open_ ~dir:pdir Standard_schemas.odyssey in
        ignore (Test_journal.activity ~seed:3 (Journal.context p) 2);
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        (match Journal.entries_since p 0 with
        | Journal.Frames frames ->
          List.iter (fun (seq, payload) -> Journal.apply j ~seq payload) frames
        | Journal.Snapshot_needed -> Alcotest.fail "the primary's wal serves 0");
        Journal.sync j;
        Alcotest.(check bool) "the follower's wal holds frames" true
          (Journal.entries_since_snapshot j > 0);
        (* the primary moves on and compacts past them *)
        ignore (Test_journal.activity ~seed:5 (Journal.context p) 2);
        Journal.compact p;
        let seq, seed = Journal.snapshot_state p in
        let fp = Sync.fingerprint (Journal.context p) in
        Journal.close p;
        Fault.arm "journal.dir_fsync" Fault.Fail;
        (match Test_journal.reset_to_snapshot j ~seq seed with
        | () -> Alcotest.fail "expected the injected crash"
        | exception Fault.Injected _ -> ());
        Fault.reset ();
        Alcotest.(check bool) "fail-stopped" true (Journal.failed j <> None);
        Journal.close j;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check int) "seqno line" seq (Journal.seq j);
        Alcotest.(check int) "no frame of the old wal replays" 0
          (Journal.entries_since_snapshot j);
        Alcotest.(check string) "fingerprint" fp
          (Sync.fingerprint (Journal.context j));
        Journal.close j);
    Alcotest.test_case "evicted payloads reload from cement" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 3);
        let reference = Test_journal.state ctx in
        Journal.compact j;
        let evicted = Journal.evict_cold j in
        Alcotest.(check bool) "something evicted" true (evicted > 0);
        (* fresh per call: a cold load promotes into the live store *)
        let resident iid =
          Store.Snapshot.payload_resident (Store.snapshot ctx.Engine.store) iid
        in
        let cold =
          List.filter
            (fun iid -> not (resident iid))
            (Store.Snapshot.all_instances (Store.snapshot ctx.Engine.store))
        in
        Alcotest.(check int) "eviction count matches residency" evicted
          (List.length cold);
        let loads () = Metrics.count (Metrics.counter "store.cold_loads") in
        let l0 = loads () in
        (* reading the full durable surface forces every payload back *)
        Alcotest.(check string) "state intact after reload" reference
          (Test_journal.state ctx);
        Alcotest.(check bool) "reloads counted" true (loads () > l0);
        List.iter
          (fun iid ->
            Alcotest.(check bool) "re-promoted" true (resident iid))
          cold;
        Journal.close j);
    Alcotest.test_case "a follower seed copies cold payloads unpromoted" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 3);
        Journal.compact j;
        Alcotest.(check bool) "something evicted" true (Journal.evict_cold j > 0);
        let resident iid =
          Store.Snapshot.payload_resident (Store.snapshot ctx.Engine.store) iid
        in
        let cold =
          List.filter
            (fun iid -> not (resident iid))
            (Store.Snapshot.all_instances (Store.snapshot ctx.Engine.store))
        in
        let loads () = Metrics.count (Metrics.counter "store.cold_loads") in
        let l0 = loads () in
        let seq, seed = Journal.snapshot_state j in
        Alcotest.(check int) "no cold load" l0 (loads ());
        List.iter
          (fun iid ->
            Alcotest.(check bool) "still cold" false (resident iid))
          cold;
        let fingerprint = Sync.fingerprint ctx in
        Journal.close j;
        (* the seed is self-contained: a database with no cement of its
           own takes it, and reopens to the same state *)
        with_dir @@ fun dir2 ->
        let f = Journal.open_ ~dir:dir2 Standard_schemas.odyssey in
        Test_journal.reset_to_snapshot f ~seq seed;
        Journal.close f;
        let f = Journal.open_ ~dir:dir2 Standard_schemas.odyssey in
        Alcotest.(check string) "same fingerprint" fingerprint
          (Sync.fingerprint (Journal.context f));
        Journal.close f);
    Alcotest.test_case "a crash at the compaction's directory fsync reopens on the same line"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 2);
        Journal.sync j;
        let seq0 = Journal.seq j in
        let reference = Test_journal.state ctx in
        (* die exactly at the directory fsync that pins the snapshot
           and base renames: the seal, both renames and the fresh wal
           are in place *)
        Fault.arm "journal.dir_fsync" Fault.Fail;
        (match Journal.compact j with
        | () -> Alcotest.fail "expected the injected crash"
        | exception Fault.Injected _ -> ());
        Alcotest.(check int) "fired once" 1 (Fault.fired "journal.dir_fsync");
        Journal.close j;
        (* recovery must not count the sealed frames into the seqno line
           twice (seq = 2 * base): they are cement's, not the wal's *)
        let j2 = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check int) "seqno line repaired" seq0 (Journal.seq j2);
        Alcotest.(check int) "base at the crash point" seq0
          (Journal.base_seq j2);
        Alcotest.(check int) "wal emptied" 0 (Journal.entries_since_snapshot j2);
        Alcotest.(check string) "state survived" reference
          (Test_journal.state (Journal.context j2));
        (* and the repaired journal keeps journaling on the same line *)
        ignore (Test_journal.activity ~seed:13 (Journal.context j2) 1);
        Alcotest.(check bool) "writes continue" true (Journal.seq j2 > seq0);
        let after = Test_journal.state (Journal.context j2) in
        Journal.close j2;
        Test_journal.reopened_equals dir after);
  ]

(* A primary with enough compacted history that a fresh subscriber's
   catch-up point predates the watermark. *)
let with_deep_primary f =
  with_dir @@ fun root ->
  Unix.mkdir root 0o755;
  let pdir = Filename.concat root "p" in
  let psock = Filename.concat root "p.sock" in
  let p =
    Server.start ~seed ~db:pdir ~socket:psock Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      try Server.stop p; Server.wait p with _ -> ())
    (fun () ->
      Client.with_client ~user:"w" ~socket:psock (fun cp ->
          ignore (Test_server.perf_run cp (Eda.Circuits.c17 ()) "c17");
          Client.compact cp);
      f ~root ~p ~pdir ~psock)

let bootstrap =
  [
    Alcotest.test_case "a late follower bootstraps by streaming" `Quick
      (fun () ->
        with_deep_primary @@ fun ~root ~p ~pdir:_ ~psock ->
        let streamed () =
          Metrics.count (Metrics.counter "replica.snapshots_streamed")
        in
        let resyncs () =
          Metrics.count (Metrics.counter "journal.snapshot_stream_resyncs")
        in
        let s0 = streamed () and r0 = resyncs () in
        let fdir = Filename.concat root "f" in
        let fsock = Filename.concat root "f.sock" in
        let fl =
          Server.start ~follow:psock ~db:fdir ~socket:fsock
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            try Server.stop fl; Server.wait fl with _ -> ())
          (fun () ->
            (Client.with_client ~socket:psock @@ fun cp ->
             Client.with_client ~socket:fsock @@ fun cf ->
             Test_replica.wait_until ~what:"streamed bootstrap"
               (Test_replica.caught_up cp cf));
            Alcotest.(check bool) "primary streamed a snapshot" true
              (streamed () > s0);
            (* exactly one resync: the follower lands past the
               watermark and never re-requests pre-watermark frames *)
            Alcotest.(check int) "one streamed resync" (r0 + 1) (resyncs ());
            Test_replica.assert_converged ~p ~fl ~fdir));
    Alcotest.test_case "snapshot-export streams to a client file" `Quick
      (fun () ->
        with_deep_primary @@ fun ~root ~p:_ ~pdir ~psock ->
        let out = Filename.concat root "export.ddf" in
        (Client.with_client ~user:"op" ~socket:psock @@ fun c ->
         let seq, bytes = Client.snapshot_export c ~out in
         Alcotest.(check int) "export covers everything" seq
           (Client.stat c).Wire.st_seq;
         Alcotest.(check int) "byte count verified" bytes
           (Unix.stat out).Unix.st_size;
         (* the export is a standalone workspace: it loads with no
            cement store beside it, holds the primary's canonical
            state, and carries the payloads the on-disk checkpoint
            only references *)
         let named, _, session = Persist.load_file Standard_schemas.odyssey out in
         Alcotest.(check int) "the export names its seq" seq named;
         let _, _, _, fingerprint, _, _ = Client.sync_digest c in
         Alcotest.(check string) "export fingerprint" fingerprint
           (Sync.fingerprint (Session.context session));
         Alcotest.(check bool) "export larger than the checkpoint" true
           (bytes > (Unix.stat (Filename.concat pdir "snapshot.ddf")).Unix.st_size)));
  ]

(* The put-map oracle: a linear scan of every cemented frame, decoding
   each put's iid — the newest put of an iid wins. *)
let scanned_puts c =
  let tbl = Hashtbl.create 16 in
  if Cement.first_seq c > 0 then
    Cement.iter_range c ~from:(Cement.first_seq c) ~upto:(Cement.last_seq c)
      (fun _ payload ->
        match Entry.decode payload with
        | Entry.Put { iid; _ } -> Hashtbl.replace tbl iid payload
        | _ -> ());
  tbl

let put_map_agrees c =
  let oracle = scanned_puts c in
  let listed = ref [] in
  Cement.iter_puts c (fun iid -> listed := iid :: !listed);
  List.sort compare !listed
  = List.sort compare (Hashtbl.fold (fun iid _ acc -> iid :: acc) oracle [])
  && List.for_all
       (fun iid ->
         Cement.find_put c ~iid = Hashtbl.find_opt oracle iid
         && (Cement.put_seq c ~iid <> None) = Hashtbl.mem oracle iid)
       (List.init 14 Fun.id)

(* Random segments of put/note/record frames over a small iid range (so
   iids repeat across segments), then a torn-tail reopen and a clear. *)
let put_map_prop =
  let frame_gen =
    QCheck2.Gen.(
      pair (int_range 0 2) (int_range 1 12) >|= fun (kind, iid) ->
      let meta = Store.meta ~label:"m" ~created_at:1 () in
      Entry.encode
        (match kind with
        | 0 ->
          Entry.Put
            { iid; clock = 1; entity = "e"; hash = "h"; meta;
              text = Printf.sprintf "v%d" iid }
        | 1 -> Entry.Note { iid; meta }
        | _ ->
          Entry.Record
            { clock = 1;
              record =
                { Entry.rp_rid = 1; rp_task_entity = "r"; rp_tool = None;
                  rp_inputs = []; rp_outputs = []; rp_at = 1 } }))
  in
  let gen =
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 5) (list_size (int_range 1 6) frame_gen))
        (int_range 1 40)
        (list_size (int_range 0 6) frame_gen))
  in
  Util.qcheck ~count:40 "the put map agrees with a linear scan" gen
    (fun (batches, cut, after_clear) ->
      with_dir @@ fun dir ->
      let fold c frames = Util.seal_frames c frames in
      let c = Cement.open_ ~dir in
      List.iter (fold c) batches;
      let live = put_map_agrees c in
      Cement.close c;
      let reopened = Cement.open_ ~dir in
      let after_reopen = put_map_agrees reopened in
      Cement.close reopened;
      (* tear the newest segment's tail *)
      let path = List.hd (List.rev (segment_files dir)) in
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (max 0 (size - cut));
      let torn = Cement.open_ ~dir in
      let after_torn = put_map_agrees torn in
      Cement.clear torn;
      let cleared = put_map_agrees torn in
      fold torn after_clear;
      let refolded = put_map_agrees torn in
      Cement.close torn;
      live && after_reopen && after_torn && cleared && refolded)

(* Flip one byte of the file at [path], at offset [off]. *)
let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (if Bytes.get b 0 = 'a' then 'b' else 'a');
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let integrity =
  [
    put_map_prop;
    Alcotest.test_case "a flipped byte in a cemented put is a typed error"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (Test_journal.activity (Journal.context j) 2);
        Journal.compact j;
        (* a second segment, so the damaged one is not the newest and
           open trusts its index instead of scanning it *)
        ignore (Test_journal.activity ~seed:5 (Journal.context j) 1);
        Journal.compact j;
        Journal.close j;
        let path = List.hd (segment_files (Filename.concat dir "cemented")) in
        (* inside the payload of the segment's last put frame *)
        let text =
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        in
        (* a put entry's kind byte, right after its frame's
           "J1 <len> <md5>\n" header line *)
        let rec last_put i =
          if text.[i] = 'p' && text.[i - 1] = '\n' && text.[i - 34] = ' ' then i
          else last_put (i - 1)
        in
        flip_byte path (last_put (String.length text - 4) + 20);
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let store = Store.snapshot (Journal.context j).Engine.store in
        let damaged = ref 0 in
        List.iter
          (fun iid ->
            match Codec.value_of_text (Store.Snapshot.payload store iid) with
            | v ->
              Alcotest.(check string) "an undamaged payload is intact"
                (Store.Snapshot.hash_of store iid) (Value.hash v)
            | exception Error.Ddf_error _ -> incr damaged)
          (Store.Snapshot.all_instances store);
        Journal.close j;
        Alcotest.(check bool) "the damaged put refuses to load" true
          (!damaged >= 1));
    Alcotest.test_case "restarting a cement store that stops short of the base"
      `Quick (fun () ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        (* a database whose cement lost its newest segment's tail: a
           second compaction cemented annotations only, then that
           segment was torn.  Its puts (all in the first segment) are
           intact, so it opens — with the cement watermark below the
           base, which the next compaction must restart from *)
        let stale_db dir =
          let j = Journal.open_ ~dir Standard_schemas.odyssey in
          let ctx = Journal.context j in
          ignore (Test_journal.activity ctx 2);
          Journal.compact j;
          List.iter
            (fun iid ->
              Store.annotate ctx.Engine.store iid ~label:"stale" ())
            [ 1; 2; 3; 4 ];
          Journal.compact j;
          Journal.close j;
          let path =
            List.hd (List.rev (segment_files (Filename.concat dir "cemented")))
          in
          Unix.truncate path ((Unix.stat path).Unix.st_size - 5);
          let j = Journal.open_ ~dir Standard_schemas.odyssey in
          (match Journal.cement_stats j with
          | Some (_, _, _, last) ->
            Alcotest.(check bool) "cement stops short of the base" true
              (last < Journal.base_seq j)
          | None -> Alcotest.fail "cement lost entirely");
          (* a put: replayed again over the checkpoint, it would come
             back under the next iid *)
          ignore (Test_journal.install_stim (Journal.context j) 1);
          Journal.sync j;
          j
        in
        let check_reopen dir fp seq =
          let j = Journal.open_ ~dir Standard_schemas.odyssey in
          let ctx = Journal.context j in
          Alcotest.(check string) "fingerprint" fp (Sync.fingerprint ctx);
          Alcotest.(check int) "seqno line" seq (Journal.seq j);
          Test_journal.payloads_verified ctx;
          Journal.close j
        in
        (* every crash point of the restarting compaction, and none *)
        List.iter
          (fun crash ->
            with_dir @@ fun dir ->
            let j = stale_db dir in
            let fp = Sync.fingerprint (Journal.context j) and seq = Journal.seq j in
            (match crash with
            | Some (point, after) -> (
              Fault.arm ~after point Fault.Fail;
              match Journal.compact j with
              | () -> Alcotest.fail "expected the injected crash"
              | exception Fault.Injected _ -> Fault.reset ())
            | None ->
              Journal.compact j;
              (match Journal.cement_stats j with
              | Some (_, _, first, last) ->
                Alcotest.(check bool) "cement restarted past the old base"
                  true (first > 1 && last = Journal.base_seq j)
              | None -> Alcotest.fail "nothing cemented");
              (* the live journal, not only a reopen, still reads every
                 payload the clear dropped the frames of, and compacts
                 again *)
              Test_journal.payloads_verified (Journal.context j);
              Journal.compact j);
            Journal.close j;
            check_reopen dir fp seq)
          [ Some ("journal.dir_fsync", 0); Some ("journal.compact", 0);
            Some ("journal.dir_fsync", 1); None ]);
  ]

let suite =
  [
    ("cement.segments", segments);
    ("cement.integrity", integrity);
    ("cement.journal", journal);
    ("cement.bootstrap", bootstrap);
  ]
