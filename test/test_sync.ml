(* Anti-entropy sync between disconnected workspaces: fingerprints,
   common-prefix location, bidirectional convergence, conflict
   surfacing and resolution, crash-resumable pulls, the wire v6 verbs
   and the hello compatibility matrix. *)

open Ddf
module E = Standard_schemas.E

let with_dir = Test_journal.with_dir
let fresh_dir = Test_journal.fresh_dir
let rm_rf = Test_journal.rm_rf
let activity = Test_journal.activity

(* Byte-copy a database directory — a laptop clone.  The clone must
   shed its workspace identity (and any sync progress) to sync as its
   own peer, exactly like a cloned machine-id. *)
let rec copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_dir s d
      else begin
        let ic = open_in_bin s in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let oc = open_out_bin d in
        output_string oc data;
        close_out oc
      end)
    (Sys.readdir src)

let clone src dst =
  copy_dir src dst;
  List.iter
    (fun f ->
      let p = Filename.concat dst f in
      if Sys.file_exists p then Sys.remove p)
    [ "wsid.ddf"; "sync.ddf" ]

let with_clone_pair ~prep f =
  with_dir @@ fun base ->
  let j = Journal.open_ ~dir:base Standard_schemas.odyssey in
  prep (Journal.context j);
  Journal.close j;
  let da = fresh_dir () and db = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf da;
      rm_rf db)
    (fun () ->
      clone base da;
      clone base db;
      let ja = Journal.open_ ~dir:da Standard_schemas.odyssey in
      let jb = Journal.open_ ~dir:db Standard_schemas.odyssey in
      Fun.protect
        ~finally:(fun () ->
          Journal.close ja;
          Journal.close jb)
        (fun () -> f ja jb))

(* Derive one new version of [base] through an edit task — the
   smallest unit of divergent work two offline designers can do. *)
let edit ctx ~name base =
  let w = Workspace.of_session (Session.of_context ctx) in
  let es =
    Workspace.install_editor_session w ~label:("session " ^ name)
      (Eda.Edit_script.create ~name [ Eda.Edit_script.Rename name ])
  in
  let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
  let g, fresh = Task_graph.expand g out in
  let editor, src = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
  let run =
    Engine.execute (Workspace.ctx w) g ~bindings:[ (editor, es); (src, base) ]
  in
  Engine.result_of run out

let fp j = Sync.fingerprint (Journal.context j)

let check_converged ?(msg = "fingerprints converge") ja jb =
  Alcotest.(check string) msg (fp ja) (fp jb)

(* ------------------------------------------------------------------ *)
(* Fingerprints and digests                                            *)
(* ------------------------------------------------------------------ *)

let fingerprints =
  [
    Alcotest.test_case "fingerprint is iid-independent but state-sensitive"
      `Quick (fun () ->
        (* the same deterministic work in two directories assigns the
           same iids; the fingerprint must also survive a journal
           replay (same state, rebuilt context) and must move when the
           state moves *)
        with_dir @@ fun d1 ->
        with_dir @@ fun d2 ->
        let j1 = Journal.open_ ~dir:d1 Standard_schemas.odyssey in
        let j2 = Journal.open_ ~dir:d2 Standard_schemas.odyssey in
        ignore (activity (Journal.context j1) 2);
        ignore (activity (Journal.context j2) 2);
        Alcotest.(check string) "same work, same fingerprint" (fp j1) (fp j2);
        Store.annotate (Journal.context j1).Engine.store 1 ~label:"moved" ();
        Alcotest.(check bool) "annotation moves the fingerprint" true
          (fp j1 <> fp j2);
        Journal.close j1;
        Journal.close j2);
    Alcotest.test_case "digest carries the journal window and frame md5s"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (activity (Journal.context j) 1);
        let d = Sync.digest_of j in
        Alcotest.(check int) "base" (Journal.base_seq j) d.Sync.g_base;
        Alcotest.(check int) "seq" (Journal.seq j) d.Sync.g_seq;
        Alcotest.(check int) "one md5 per wal frame"
          (Journal.seq j - Journal.base_seq j)
          (List.length d.Sync.g_entries);
        Alcotest.(check bool) "wsid minted" true
          (String.length d.Sync.g_wsid > 0);
        Journal.close j);
    Alcotest.test_case "common_prefix finds the divergence point of clones"
      `Quick (fun () ->
        with_clone_pair ~prep:(fun ctx -> ignore (activity ctx 2))
        @@ fun ja jb ->
        let shared = Journal.seq ja in
        Alcotest.(check int) "clones share their whole history" shared
          (Journal.seq jb);
        Alcotest.(check int) "identical digests agree everywhere" shared
          (Sync.common_prefix (Sync.digest_of ja) (Sync.digest_of jb));
        ignore (activity ~seed:11 (Journal.context ja) 1);
        ignore (activity ~seed:22 (Journal.context jb) 1);
        Alcotest.(check int) "divergent suffixes stop the scan" shared
          (Sync.common_prefix (Sync.digest_of ja) (Sync.digest_of jb)));
  ]

(* ------------------------------------------------------------------ *)
(* Convergence                                                         *)
(* ------------------------------------------------------------------ *)

let convergence =
  [
    Alcotest.test_case "an empty workspace pulls everything, then idles"
      `Quick (fun () ->
        with_dir @@ fun da ->
        with_dir @@ fun db ->
        let ja = Journal.open_ ~dir:da Standard_schemas.odyssey in
        let jb = Journal.open_ ~dir:db Standard_schemas.odyssey in
        ignore (activity (Journal.context ja) 2);
        let r =
          Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ()
        in
        Alcotest.(check int) "b pulled a's whole journal" (Journal.seq ja)
          r.Sync.rp_into_b.Sync.d_pulled;
        Alcotest.(check bool) "pulls were applied" true
          (r.Sync.rp_into_b.Sync.d_applied > 0);
        check_converged ja jb;
        (* a second session moves no state: echoes deduplicate and the
           cursors already cover both suffixes *)
        let r2 =
          Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ()
        in
        Alcotest.(check int) "nothing new into a" 0
          r2.Sync.rp_into_a.Sync.d_applied;
        Alcotest.(check int) "nothing new into b" 0
          r2.Sync.rp_into_b.Sync.d_applied;
        check_converged ja jb;
        Journal.close ja;
        Journal.close jb);
    Alcotest.test_case "divergent clones converge in one run" `Quick
      (fun () ->
        with_clone_pair ~prep:(fun ctx -> ignore (activity ctx 1))
        @@ fun ja jb ->
        ignore (activity ~seed:31 (Journal.context ja) 2);
        ignore (activity ~seed:47 (Journal.context jb) 2);
        Alcotest.(check bool) "genuinely diverged" true (fp ja <> fp jb);
        ignore
          (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        check_converged ja jb);
    Alcotest.test_case "dry run counts but applies nothing" `Quick (fun () ->
        with_clone_pair ~prep:(fun ctx -> ignore (activity ctx 1))
        @@ fun ja jb ->
        ignore (activity ~seed:5 (Journal.context ja) 1);
        let before = fp jb in
        let r =
          Sync.run ~dry_run:true ~a:(Sync.of_journal ja)
            ~b:(Sync.of_journal jb) ()
        in
        Alcotest.(check bool) "counted the missing suffix" true
          (r.Sync.rp_into_b.Sync.d_pulled > 0);
        Alcotest.(check string) "b untouched" before (fp jb);
        Alcotest.(check (list (pair string int))) "no cursor written" []
          (Sync.cursors jb));
    Alcotest.test_case "third workspace converges transitively" `Quick
      (fun () ->
        (* a -> b -> c: c never talks to a, yet ends with a's work —
           the birth-key identity survives the extra hop *)
        with_clone_pair ~prep:(fun ctx -> ignore (activity ctx 1))
        @@ fun ja jb ->
        with_dir @@ fun dc ->
        let jc = Journal.open_ ~dir:dc Standard_schemas.odyssey in
        ignore (activity ~seed:61 (Journal.context ja) 1);
        ignore
          (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        ignore
          (Sync.run ~a:(Sync.of_journal jb) ~b:(Sync.of_journal jc) ());
        check_converged ja jc;
        Journal.close jc);
    Alcotest.test_case "peers sharing a workspace id are refused" `Quick
      (fun () ->
        with_dir @@ fun da ->
        let ja = Journal.open_ ~dir:da Standard_schemas.odyssey in
        ignore (Journal.wsid ja);
        let db = fresh_dir () in
        Fun.protect ~finally:(fun () -> rm_rf db) @@ fun () ->
        Journal.close ja;
        copy_dir da db (* keeps wsid.ddf: the classic cloning mistake *);
        let ja = Journal.open_ ~dir:da Standard_schemas.odyssey in
        let jb = Journal.open_ ~dir:db Standard_schemas.odyssey in
        (match
           Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ()
         with
        | _ -> Alcotest.fail "expected a refusal"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "typed `Invalid" true (e.Error.code = `Invalid));
        Journal.close ja;
        Journal.close jb);
  ]

(* ------------------------------------------------------------------ *)
(* Conflicts                                                           *)
(* ------------------------------------------------------------------ *)

(* Netlist versions carry their (renamed) netlist name; labels are
   engine-generated summaries, so we match on the payload. *)
let find_version ctx name =
  let store = ctx.Engine.store in
  match
    List.find_opt
      (fun iid ->
        match Engine.payload ctx iid with
        | Value.Netlist nl -> nl.Eda.Netlist.name = name
        | _ -> false)
      (Store.instances_of_entity store E.edited_netlist)
  with
  | Some iid -> iid
  | None -> Alcotest.failf "no netlist version named %s" name

let conflicts =
  [
    Alcotest.test_case
      "both sides deriving the same base surfaces a conflict, not an \
       overwrite"
      `Quick (fun () ->
        with_clone_pair ~prep:(fun ctx -> ignore (activity ctx 1))
        @@ fun ja jb ->
        let ca = Journal.context ja and cb = Journal.context jb in
        let base_a = find_version ca "v1" in
        ignore (edit ca ~name:"ours" base_a);
        ignore (edit cb ~name:"theirs" (find_version cb "v1"));
        ignore
          (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        (* both versions survive on both sides, as siblings *)
        List.iter
          (fun ctx ->
            ignore (find_version ctx "ours");
            ignore (find_version ctx "theirs"))
          [ ca; cb ];
        let kids = History.version_children ca.Engine.history base_a in
        Alcotest.(check int) "sibling versions under the base" 2
          (List.length kids);
        (* ... and the divergence is registered once per side *)
        let open_a = History.conflicts ca.Engine.history in
        Alcotest.(check int) "one open conflict on a" 1 (List.length open_a);
        Alcotest.(check int) "one open conflict on b" 1
          (List.length (History.conflicts cb.Engine.history));
        (* a second session must not re-register it *)
        ignore
          (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        Alcotest.(check int) "still one conflict" 1
          (List.length (History.all_conflicts ca.Engine.history));
        check_converged ~msg:"conflicting states still converge" ja jb);
    Alcotest.test_case "a resolution travels to the peer" `Quick (fun () ->
        with_clone_pair ~prep:(fun ctx -> ignore (activity ctx 1))
        @@ fun ja jb ->
        let ca = Journal.context ja and cb = Journal.context jb in
        ignore (edit ca ~name:"ours" (find_version ca "v1"));
        ignore (edit cb ~name:"theirs" (find_version cb "v1"));
        ignore
          (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        (match History.conflicts ca.Engine.history with
        | [ c ] ->
          ignore
            (History.resolve_conflict ca.Engine.history c.History.cid
               ~winner:(find_version ca "ours")
              : History.conflict)
        | cs -> Alcotest.failf "expected one conflict, got %d" (List.length cs));
        ignore
          (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        Alcotest.(check int) "no open conflicts left on b" 0
          (List.length (History.conflicts cb.Engine.history));
        check_converged ~msg:"resolved states converge" ja jb);
    Alcotest.test_case "concurrent annotations merge as a max-register"
      `Quick (fun () ->
        with_clone_pair ~prep:(fun ctx -> ignore (activity ctx 1))
        @@ fun ja jb ->
        let ca = Journal.context ja and cb = Journal.context jb in
        let ia = find_version ca "v1" and ib = find_version cb "v1" in
        Store.annotate ca.Engine.store ia ~label:"alpha" ();
        Store.annotate cb.Engine.store ib ~label:"zulu" ();
        ignore
          (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        Alcotest.(check string) "larger annotation wins on a" "zulu"
          (Store.meta_of ca.Engine.store ia).Store.label;
        Alcotest.(check string) "larger annotation wins on b" "zulu"
          (Store.meta_of cb.Engine.store ib).Store.label;
        Alcotest.(check int) "annotations never conflict" 0
          (List.length (History.all_conflicts ca.Engine.history));
        check_converged ja jb);
  ]

(* ------------------------------------------------------------------ *)
(* Resumability under injected disconnects                             *)
(* ------------------------------------------------------------------ *)

let resume =
  [
    Alcotest.test_case "a severed pull resumes from the persisted cursor"
      `Quick (fun () ->
        with_dir @@ fun da ->
        with_dir @@ fun db ->
        let ja = Journal.open_ ~dir:da Standard_schemas.odyssey in
        let jb = Journal.open_ ~dir:db Standard_schemas.odyssey in
        ignore (activity (Journal.context ja) 2);
        let wsid_a = Journal.wsid ja in
        Fault.reset ();
        Fault.arm ~after:3 "sync.pull" Fault.Fail;
        (match
           Sync.pull ~batch:1 ~src:(Sync.of_journal ja)
             ~dst:(Sync.of_journal jb) ()
         with
        | _ -> Alcotest.fail "expected the injected disconnect"
        | exception Fault.Injected _ -> ());
        Fault.reset ();
        (* the completed rounds stuck: the cursor marks where to resume *)
        let cursor =
          match List.assoc_opt wsid_a (Sync.cursors jb) with
          | Some c -> c
          | None -> Alcotest.fail "no cursor persisted for the source"
        in
        Alcotest.(check bool) "partial progress persisted" true
          (cursor >= 3 && cursor < Journal.seq ja);
        let d =
          Sync.pull ~batch:1 ~src:(Sync.of_journal ja)
            ~dst:(Sync.of_journal jb) ()
        in
        Alcotest.(check bool) "resume starts at the cursor, not zero" true
          (d.Sync.d_start >= cursor);
        Alcotest.(check int) "resume pulls only the remainder"
          (Journal.seq ja - d.Sync.d_start)
          d.Sync.d_pulled;
        check_converged ja jb;
        Journal.close ja;
        Journal.close jb);
  ]

(* ------------------------------------------------------------------ *)
(* The wire: the sync verbs, the hello, socket-to-socket sync          *)
(* ------------------------------------------------------------------ *)

let rt_request r =
  Wire.request_of_binary_string (Wire.request_to_binary_string r)

let rt_response r =
  Wire.response_of_binary_string (Wire.response_to_binary_string r)

let wire_codecs =
  [
    Alcotest.test_case "the v6 verbs round-trip the codec" `Quick (fun () ->
        let frames = [ (7, "abc123", "(put (iid 7))"); (8, "ff", "x") ] in
        List.iter
          (fun req ->
            Alcotest.(check bool) "request round-trips" true
              (rt_request req = req))
          [ Wire.Sync_digest;
            Wire.Sync_frames { after = 12; limit = 64 };
            Wire.Sync_ack { origin = "w1"; upto = 9; frames };
            Wire.Sync_ack { origin = "w2"; upto = 3; frames = [] };
            Wire.Conflicts;
            Wire.Resolve { conflict = 4; winner = 17 } ];
        List.iter
          (fun resp ->
            Alcotest.(check bool) "response round-trips" true
              (rt_response resp = resp))
          [ Wire.Ok_digest
              { wsid = "w1"; base = 3; seq = 9; fingerprint = "fp";
                cursors = [ ("w2", 5) ]; entries = [ (4, "aa"); (5, "bb") ] };
            Wire.Ok_frames frames;
            Wire.Ok_sync
              { Wire.sy_applied = 2; sy_skipped = 1; sy_conflicts = 1;
                sy_cursor = 9 };
            Wire.Ok_conflicts
              [ { Wire.cf_id = 1; cf_base = 2; cf_ours = 3; cf_theirs = 4;
                  cf_origin = "w2"; cf_at = 11; cf_winner = Some 3 };
                { Wire.cf_id = 2; cf_base = 5; cf_ours = 6; cf_theirs = 7;
                  cf_origin = "w1"; cf_at = 12; cf_winner = None } ] ]);
  ]

let with_server ?dir f =
  let go dir =
    let socket = Filename.concat dir "s.sock" in
    let t = Server.start ~db:dir ~socket Standard_schemas.odyssey in
    Fun.protect
      ~finally:(fun () ->
        Server.stop t;
        Server.wait t)
      (fun () -> f ~dir ~socket)
  in
  match dir with Some d -> go d | None -> with_dir go

let hello_matrix =
  [
    Alcotest.test_case "hello: only this version is accepted, neighbours refused"
      `Quick (fun () ->
        with_server @@ fun ~dir:_ ~socket ->
        let hello version =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Wire.send_request fd (Wire.Hello { user = "h"; version });
          Option.map fst (Wire.recv_response fd)
        in
        Alcotest.(check bool) "current version accepted" true
          (hello Wire.protocol_version = Some Wire.Ok_unit);
        List.iter
          (fun v ->
            match hello v with
            | Some (Wire.Error e) ->
              Alcotest.(check bool) "typed final refusal" true
                (e.Error.code = `Invalid && not e.Error.retryable)
            | _ -> Alcotest.failf "v%d should have been refused" v)
          [ 1; Wire.protocol_version - 1; Wire.protocol_version + 1 ]);
  ]

let sockets =
  [
    Alcotest.test_case "two daemons sync over their sockets" `Quick
      (fun () ->
        with_dir @@ fun da ->
        with_dir @@ fun db ->
        (* seed one side offline, then serve both *)
        let j = Journal.open_ ~dir:da Standard_schemas.odyssey in
        ignore (activity (Journal.context j) 1);
        Journal.close j;
        with_server ~dir:da @@ fun ~dir:_ ~socket:sa ->
        with_server ~dir:db @@ fun ~dir:_ ~socket:sb ->
        Client.with_client ~user:"ann" ~socket:sa @@ fun ca ->
        Client.with_client ~user:"bob" ~socket:sb @@ fun cb ->
        (* divergent work through the wire *)
        ignore
          (Client.install ca ~entity:E.stimuli ~label:"from-a"
             (Codec.value_to_sexp
                (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))));
        ignore
          (Client.install cb ~entity:E.stimuli ~label:"from-b"
             (Codec.value_to_sexp
                (Value.Stimuli (Eda.Stimuli.exhaustive [ "b" ]))));
        let r =
          Sync.run ~a:(Sync.of_client ca) ~b:(Sync.of_client cb) ()
        in
        Alcotest.(check bool) "frames moved both ways" true
          (r.Sync.rp_into_a.Sync.d_pulled > 0
          && r.Sync.rp_into_b.Sync.d_pulled > 0);
        let _, _, _, fpa, _, _ = Client.sync_digest ca in
        let _, _, _, fpb, _, _ = Client.sync_digest cb in
        Alcotest.(check string) "server fingerprints converge" fpa fpb;
        Alcotest.(check int) "no conflicts from disjoint installs" 0
          (List.length (Client.conflicts ca)));
  ]

(* ------------------------------------------------------------------ *)
(* Property: random divergence always converges in <= 2 runs           *)
(* ------------------------------------------------------------------ *)

let converges_gen =
  QCheck2.Gen.(
    pair (int_bound 1_000_000)
      (pair (pair (int_range 0 2) (int_range 0 2)) (int_bound 4)))

(* Two clones diverge by random suffixes and sync over a link that may
   fail mid-flight; two clean sessions then reach one fingerprint.
   With [compact_every], the clones start from a checkpoint with a
   sealed tail past it, and once converged each side seals when a seal
   is due, after which a third session keeps the fingerprints equal.
   Divergent work is not sealed before it syncs: sync compares the
   wals, and takes what either side has compacted as shared. *)
let sync_converges ?compact_every (seed, ((na, nb), fault_after)) =
  let base = fresh_dir () and da = fresh_dir () and db = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      rm_rf base;
      rm_rf da;
      rm_rf db)
    (fun () ->
      let j = Journal.open_ ?compact_every ~dir:base Standard_schemas.odyssey in
      ignore (activity ~seed (Journal.context j) 1);
      if compact_every <> None then begin
        Journal.compact j;
        List.iter
          (fun k ->
            Store.annotate (Journal.context j).Engine.store 1
              ~label:(Printf.sprintf "sealed %d" k) ())
          [ 1; 2; 3 ];
        ignore (Journal.maybe_compact j)
      end;
      Journal.close j;
      clone base da;
      clone base db;
      let ja = Journal.open_ ?compact_every ~dir:da Standard_schemas.odyssey in
      let jb = Journal.open_ ?compact_every ~dir:db Standard_schemas.odyssey in
      let run () =
        ignore (Sync.run ~batch:3 ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ())
      in
      Fun.protect
        ~finally:(fun () ->
          Journal.close ja;
          Journal.close jb)
        (fun () ->
          if na > 0 then
            ignore (activity ~seed:(seed + 1) (Journal.context ja) na);
          if nb > 0 then
            ignore (activity ~seed:(seed + 2) (Journal.context jb) nb);
          (* first attempt may die mid-flight on a faulty link *)
          Fault.arm ~after:fault_after "sync.pull" Fault.Fail;
          (try run () with Fault.Injected _ -> ());
          Fault.reset ();
          (* two clean sessions from anywhere reach a fixpoint *)
          run ();
          run ();
          fp ja = fp jb
          && (compact_every = None
             || begin
               List.iter (fun j -> ignore (Journal.maybe_compact j)) [ ja; jb ];
               run ();
               fp ja = fp jb
             end)))

let properties =
  [
    Util.qcheck ~count:8 "sync_converges: random suffixes, faulty links"
      converges_gen sync_converges;
    Util.qcheck ~count:8 "sync_converges with a seal every 3 entries"
      converges_gen (sync_converges ~compact_every:3);
  ]

(* A peer whose schema still has a role the local one dropped sends a
   record filling it: the apply is a typed error, and the local
   history, store and journal gain nothing from that record. *)
let rules =
  [ Alcotest.test_case "a peer's record the schema refuses is a typed error"
      `Quick (fun () ->
        with_dir @@ fun da ->
        with_dir @@ fun db ->
        let ja = Journal.open_ ~dir:da (Test_journal.docs_schema ~with_base:true) in
        let jb = Journal.open_ ~dir:db (Test_journal.docs_schema ~with_base:false) in
        Fun.protect
          ~finally:(fun () ->
            Journal.close ja;
            Journal.close jb)
        @@ fun () ->
        let rid = Test_journal.base_record (Journal.context ja) in
        let records, puts =
          List.partition
            (fun (_, _, payload) -> String.starts_with ~prefix:"r" payload)
            (Journal.frames ja ~after:0 ~limit:100)
        in
        Alcotest.(check int) "one record frame" 1 (List.length records);
        let origin = Journal.wsid ja and upto = Journal.seq ja in
        ignore (Sync.apply_frames jb ~origin ~upto:(upto - 1) puts);
        let ctx = Journal.context jb in
        let state () =
          ( History.size ctx.Engine.history,
            History.tick ctx.Engine.history,
            Store.instance_count ctx.Engine.store,
            Journal.seq jb )
        in
        let before = state () in
        Test_journal.expect_refusal ~rid (fun () ->
            Sync.apply_frames jb ~origin ~upto records);
        Alcotest.(check bool) "history, store and journal unchanged" true
          (before = state ()));
  ]

let suite =
  [
    ( "sync",
      fingerprints @ convergence @ conflicts @ resume @ wire_codecs
      @ hello_matrix @ sockets @ properties );
    ("sync.rules", rules);
  ]
