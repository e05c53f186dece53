(* Pairwise anti-entropy between disconnected workspace journals.

   The plan of a sync session (one [run]):

     1. both sides publish a digest: workspace id, journal window
        (base, seq), per-frame md5s, per-origin applied cursors and a
        canonical state fingerprint;
     2. the common prefix of the two histories is located by comparing
        frame digests over the window both wals still cover — clones
        of one directory agree up to the point of divergence;
     3. each side pulls exactly the other's missing suffix, in bounded
        batches, each batch applied and its cursor persisted before
        the next fetch (a severed sync resumes from the cursor).

   Application is semantic re-execution, not byte copy.  Instance ids
   are local to a store, so a remote entry is remapped before replay:

     - an instance's sync identity is its immutable birth key —
       (entity, content hash, creating user, logical creation time) —
       so the same object arriving twice (or over two routes)
       deduplicates, and the mapping (origin, remote iid) → local iid
       is persisted in the sync.ddf sidecar;
     - history records dedup on (task, tool, inputs, outputs, at)
       after remapping;
     - annotations merge as a max-register: the lexicographically
       larger serialized (label, comment, keywords) wins, so both
       sides converge without ordering metadata;
     - a remote record that derives a NEW version of an instance we
       also derived a version of becomes a sibling in the version tree
       and registers a History conflict — never an overwrite;
     - conflicts and resolutions travel in the journal like everything
       else, deduplicating on their unordered {ours, theirs} pair.

   Everything applied here goes through the ordinary store/history
   operations, so the local journal observers re-journal the effects
   with local ids — which is exactly what makes the merge visible to
   the peer in the reverse direction (and to any third workspace). *)

open Ddf_store
open Ddf_history
module S = Ddf_persist.Sexp
module W = Ddf_entry.Workspace_file
module Engine = Ddf_exec.Engine
module Journal = Ddf_journal.Journal
module Entry = Ddf_entry.Entry
module Wire = Ddf_wire.Wire
module Client = Ddf_client.Client
module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics
module Fault = Ddf_fault.Fault
module E = Ddf_core.Error

let m_rounds = Metrics.counter "sync.rounds"
let m_frames = Metrics.counter "sync.frames_pulled"
let m_conflicts = Metrics.counter "sync.conflicts"
let h_round = Metrics.histogram "sync.round_us"

(* ------------------------------------------------------------------ *)
(* The sync.ddf sidecar: cursors and identity maps                     *)
(* ------------------------------------------------------------------ *)

(* Lives next to the wal; loaded per batch, written atomically after.
   Losing it (crash between journal append and sidecar save) is safe:
   the cursor re-reads frames that then deduplicate by identity. *)
type state = {
  mutable st_cursors : (string * int) list;   (* origin wsid -> applied seqno *)
  st_imap : (string * int, int) Hashtbl.t;    (* (origin, remote iid) -> local iid *)
  st_cmap : (string * int, int) Hashtbl.t;    (* (origin, remote cid) -> local cid *)
  st_born : (int, string) Hashtbl.t;          (* local iid -> origin it synced from *)
}

let state_path dir = Filename.concat dir "sync.ddf"

let empty_state () =
  { st_cursors = []; st_imap = Hashtbl.create 64; st_cmap = Hashtbl.create 16;
    st_born = Hashtbl.create 64 }

let load_state dir =
  let path = state_path dir in
  if not (Sys.file_exists path) then empty_state ()
  else begin
    let ic = open_in_bin path in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let sexp =
      try S.of_string data
      with S.Sexp_error m -> E.errorf `Internal "sync.ddf: %s" m
    in
    match S.as_list sexp with
    | S.Atom "sync" :: fields ->
      let st = empty_state () in
      let rows name f =
        match S.find_field_opt fields name with
        | None -> ()
        | Some rows -> List.iter (fun r -> f (S.as_list r)) rows
      in
      rows "cursors" (function
        | [ w; n ] -> st.st_cursors <- (S.as_atom w, S.as_int n) :: st.st_cursors
        | _ -> E.errorf `Internal "sync.ddf: malformed cursor");
      rows "imap" (function
        | [ o; r; l ] ->
          Hashtbl.replace st.st_imap (S.as_atom o, S.as_int r) (S.as_int l)
        | _ -> E.errorf `Internal "sync.ddf: malformed imap row");
      rows "cmap" (function
        | [ o; r; l ] ->
          Hashtbl.replace st.st_cmap (S.as_atom o, S.as_int r) (S.as_int l)
        | _ -> E.errorf `Internal "sync.ddf: malformed cmap row");
      rows "born" (function
        | [ l; o ] -> Hashtbl.replace st.st_born (S.as_int l) (S.as_atom o)
        | _ -> E.errorf `Internal "sync.ddf: malformed born row");
      st
    | _ -> E.errorf `Internal "sync.ddf: malformed"
  end

let save_state dir st =
  let sorted tbl f =
    Hashtbl.fold (fun k v acc -> f k v :: acc) tbl []
    |> List.sort compare
    |> List.map (fun row -> S.list row)
  in
  let sexp =
    S.list
      [ S.atom "sync";
        S.field "cursors"
          (List.map
             (fun (w, n) -> S.list [ S.atom w; S.int n ])
             (List.sort compare st.st_cursors));
        S.field "imap"
          (sorted st.st_imap (fun (o, r) l -> [ S.atom o; S.int r; S.int l ]));
        S.field "cmap"
          (sorted st.st_cmap (fun (o, r) l -> [ S.atom o; S.int r; S.int l ]));
        S.field "born"
          (sorted st.st_born (fun l o -> [ S.int l; S.atom o ])) ]
  in
  Ddf_disk.Disk.replace (state_path dir) (fun oc ->
      output_string oc (S.to_string ~pretty:true sexp);
      output_char oc '\n');
  (* pins the rename *)
  Ddf_disk.Disk.fsync_path dir

let cursor_of st origin =
  match List.assoc_opt origin st.st_cursors with Some c -> c | None -> 0

let set_cursor st origin seq =
  st.st_cursors <- (origin, seq) :: List.remove_assoc origin st.st_cursors

let cursors j = List.sort compare (load_state (Journal.dir j)).st_cursors

(* ------------------------------------------------------------------ *)
(* Identity: birth keys and the canonical fingerprint                  *)
(* ------------------------------------------------------------------ *)

(* The immutable identity an instance keeps across workspaces: entity,
   content hash, creating user and logical creation time.  The mutable
   annotation (label/comment/keywords) is deliberately excluded — it
   merges, it does not identify. *)
let birth_key_of ~entity ~hash ~user ~created_at =
  S.to_string
    (S.list [ S.atom entity; S.atom hash; S.atom user; S.int created_at ])

let birth_key snap iid =
  let inst = Store.Snapshot.find snap iid in
  let m = inst.Store.meta in
  birth_key_of ~entity:inst.Store.entity ~hash:inst.Store.data_hash
    ~user:m.Store.user ~created_at:m.Store.created_at

(* Canonical identity-independent digest of the whole design state:
   sorted lines for every instance (birth key + current annotation),
   every record (iids replaced by birth keys, bindings sorted) and
   every conflict (unordered pair; detection time and reporting origin
   dropped — both peers describe one divergence from opposite ends).
   Two fully synced workspaces produce equal fingerprints even though
   their iids were assigned in different orders. *)
let fingerprint (ctx : Engine.context) =
  let { Engine.v_store = store; v_history = history } = Engine.pin ctx in
  let key = birth_key store in
  let lines = ref [] in
  let line s = lines := S.to_string (S.list s) :: !lines in
  List.iter
    (fun iid ->
      let inst = Store.Snapshot.find store iid in
      let m = inst.Store.meta in
      line
        [ S.atom "i"; S.atom inst.Store.entity; S.atom inst.Store.data_hash;
          S.atom m.Store.user; S.int m.Store.created_at; S.atom m.Store.label;
          S.atom m.Store.comment; S.list (List.map S.atom m.Store.keywords) ])
    (Store.Snapshot.all_instances store);
  let binding l =
    List.sort compare (List.map (fun (role, iid) -> (role, key iid)) l)
    |> List.map (fun (role, k) -> S.list [ S.atom role; S.atom k ])
  in
  List.iter
    (fun (r : History.record) ->
      line
        [ S.atom "r"; S.atom r.History.task_entity; S.int r.History.at;
          (match r.History.tool with
          | None -> S.atom "-"
          | Some t -> S.atom (key t));
          S.list (binding r.History.inputs); S.list (binding r.History.outputs) ])
    (History.Snapshot.records history);
  List.iter
    (fun (c : History.conflict) ->
      let pair =
        List.sort compare [ key c.History.c_ours; key c.History.c_theirs ]
      in
      line
        [ S.atom "c"; S.atom (key c.History.c_base);
          S.list (List.map S.atom pair);
          (match c.History.c_winner with
          | None -> S.atom "-"
          | Some w -> S.atom (key w)) ])
    (History.Snapshot.all_conflicts history);
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare !lines)))

(* ------------------------------------------------------------------ *)
(* Digests and the common prefix                                       *)
(* ------------------------------------------------------------------ *)

type digest = {
  g_wsid : string;
  g_base : int;
  g_seq : int;
  g_fingerprint : string;
  g_cursors : (string * int) list;
  g_entries : (int * string) list;
}

let digest_of j =
  { g_wsid = Journal.wsid j; g_base = Journal.base_seq j;
    g_seq = Journal.seq j; g_fingerprint = fingerprint (Journal.context j);
    g_cursors = cursors j; g_entries = Journal.digest j }

(* The last seqno both journals agree on, scanned over the window both
   wals still cover.  Frames below [max] of the bases are invisible
   (compacted on at least one side) and assumed shared — compaction
   bounds how far back divergence can be detected, so divergent work
   should sync before it is compacted; a pull that genuinely needs
   compacted frames fails with a typed [`Conflict] from
   {!Journal.frames}. *)
let common_prefix a b =
  let lo = max a.g_base b.g_base in
  let hi = min a.g_seq b.g_seq in
  if hi < lo then hi
  else begin
    let rec go s =
      if s >= hi then s
      else
        let n = s + 1 in
        match (List.assoc_opt n a.g_entries, List.assoc_opt n b.g_entries) with
        | Some da, Some db when da = db -> go n
        | _ -> s
    in
    go lo
  end

(* ------------------------------------------------------------------ *)
(* Applying a remote suffix                                            *)
(* ------------------------------------------------------------------ *)

let annotation_key (m : Store.meta) =
  S.to_string
    (S.list
       [ S.atom m.Store.label; S.atom m.Store.comment;
         S.list (List.map S.atom m.Store.keywords) ])

let record_key ~task_entity ~tool ~inputs ~outputs ~at =
  let binding l =
    List.map (fun (r, i) -> S.list [ S.atom r; S.int i ]) (List.sort compare l)
  in
  S.to_string
    (S.list
       [ S.atom task_entity; S.int at;
         (match tool with None -> S.atom "-" | Some t -> S.int t);
         S.list (binding inputs); S.list (binding outputs) ])

(* One batch application.  Per-frame dispatch below; the counters are
   each frame's fate (applied xor skipped) plus the conflicts it
   registered. *)
let apply_frames j ~origin ~upto frames =
  let ctx = Journal.context j in
  let self = Journal.wsid j in
  if origin = self then
    E.errorf `Invalid
      "peer reports our own workspace id %s — a cloned directory must shed \
       wsid.ddf (and sync.ddf) to sync as its own peer"
      origin;
  let dir = Journal.dir j in
  let st = load_state dir in
  Obs.with_span ~cat:"sync"
    ~attrs:
      [ ("origin", Obs.Str origin); ("frames", Obs.Int (List.length frames)) ]
    "sync.apply"
  @@ fun () ->
  let store () = ctx.Engine.store in
  let history () = ctx.Engine.history in
  (* Every read re-pins: the entries applied before it wrote. *)
  let stored () = Store.snapshot (store ()) in
  let recorded () = History.snapshot (history ()) in
  (* identity and record indexes over the CURRENT local state, kept
     up to date as entries apply *)
  let id_index = Hashtbl.create 256 in
  let snap = stored () in
  List.iter
    (fun iid ->
      let bk = birth_key snap iid in
      if not (Hashtbl.mem id_index bk) then Hashtbl.add id_index bk iid)
    (Store.Snapshot.all_instances snap);
  let rec_index = Hashtbl.create 256 in
  List.iter
    (fun (r : History.record) ->
      Hashtbl.replace rec_index
        (record_key ~task_entity:r.History.task_entity ~tool:r.History.tool
           ~inputs:r.History.inputs ~outputs:r.History.outputs ~at:r.History.at)
        r.History.rid)
    (History.Snapshot.records (recorded ()));
  let applied = ref 0 and skipped = ref 0 and conflicts = ref 0 in
  (* remote iid -> local iid: the persisted map first; an id not in the
     map must predate the divergence point, where clone iids coincide *)
  let remap riid =
    match Hashtbl.find_opt st.st_imap (origin, riid) with
    | Some liid -> liid
    | None ->
      if Store.Snapshot.mem (stored ()) riid then riid
      else
        E.errorf `Conflict
          "sync from %s references instance %d with no local counterpart \
           (peer compacted past the divergence point?)"
          origin riid
  in
  let register_conflict ~base ~ours ~theirs =
    match History.Snapshot.find_conflict_pair (recorded ()) ours theirs with
    | Some _ -> ()
    | None ->
      ignore
        (History.add_conflict (history ()) ~base ~ours ~theirs ~origin
           ~at:(Engine.tick ctx)
          : History.conflict);
      incr conflicts;
      Metrics.incr m_conflicts
  in
  let advance clock = ctx.Engine.clock <- max ctx.Engine.clock clock in
  (* a peer's bad bytes are its error, not this journal's *)
  let from_peer f =
    try f ()
    with E.Ddf_error e when e.E.code = `Internal ->
      E.errorf `Invalid "sync frame: %s" e.E.message
  in
  let apply_entry payload =
    match from_peer (fun () -> Entry.decode payload) with
    | Entry.Put { iid = riid; clock; entity; hash = stored_hash; meta; text } ->
      ignore (from_peer (fun () -> Entry.value ~iid:riid ~hash:stored_hash text));
      advance clock;
      if Hashtbl.mem st.st_imap (origin, riid) then incr skipped
      else begin
        let bk =
          birth_key_of ~entity ~hash:stored_hash ~user:meta.Store.user
            ~created_at:meta.Store.created_at
        in
        match Hashtbl.find_opt id_index bk with
        | Some liid ->
          (* the same object arrived before (or we created it): map it *)
          Hashtbl.replace st.st_imap (origin, riid) liid;
          incr skipped
        | None ->
          (* a direct put preserves the remote meta (user, creation
             time), so the birth key survives further hops; the
             peer's text is journaled as it came *)
          let liid = Store.put (store ()) ~entity ~hash:stored_hash ~meta text in
          Hashtbl.replace st.st_imap (origin, riid) liid;
          Hashtbl.replace st.st_born liid origin;
          Hashtbl.replace id_index bk liid;
          incr applied
      end
    | Entry.Note { iid = riid; meta } ->
      let liid = remap riid in
      (* max-register merge: the larger serialized annotation wins on
         both sides, so concurrent edits converge without a conflict;
         equality skips, so re-delivery reaches a fixpoint *)
      if
        annotation_key meta
        > annotation_key (Store.Snapshot.meta_of (stored ()) liid)
      then begin
        Store.annotate (store ()) liid ~label:meta.Store.label
          ~comment:meta.Store.comment ~keywords:meta.Store.keywords ();
        incr applied
      end
      else incr skipped
    | Entry.Record { clock; record = p } ->
      advance clock;
      let tool = Option.map remap p.Entry.rp_tool in
      let inputs = List.map (fun (role, i) -> (role, remap i)) p.Entry.rp_inputs in
      let outputs = List.map (fun (e, i) -> (e, remap i)) p.Entry.rp_outputs in
      let rkey =
        record_key ~task_entity:p.Entry.rp_task_entity ~tool ~inputs ~outputs
          ~at:p.Entry.rp_at
      in
      if Hashtbl.mem rec_index rkey then incr skipped
      else begin
        (* a collision is a divergence to surface as a conflict, not
           an error *)
        let collisions =
          List.filter
            (fun (_, o) ->
              History.Snapshot.derivation_of (recorded ()) o <> None)
            outputs
        in
        if collisions <> [] then begin
          (* the same instance claims two different derivations: keep
             ours, surface the divergence *)
          List.iter
            (fun (_, o) ->
              let base =
                Option.value ~default:o
                  (History.Snapshot.version_parent (recorded ()) o)
              in
              register_conflict ~base ~ours:o ~theirs:o)
            collisions;
          incr skipped
        end
        else begin
          let r =
            W.add_record ctx
              { p with Entry.rp_tool = tool; rp_inputs = inputs; rp_outputs = outputs }
          in
          Hashtbl.replace rec_index rkey r.History.rid;
          incr applied;
          (* did this record branch the version tree?  A sibling that
             did not itself come from this origin means both
             workspaces derived a version of the same object *)
          let h = recorded () in
          List.iter
            (fun (_, o) ->
              match History.Snapshot.version_parent h o with
              | None -> ()
              | Some parent ->
                List.iter
                  (fun sib ->
                    if
                      sib <> o
                      && Hashtbl.find_opt st.st_born sib <> Some origin
                    then register_conflict ~base:parent ~ours:sib ~theirs:o)
                  (History.Snapshot.version_children h parent))
            outputs
        end
      end
    | Entry.Conflict { clock; conflict = rcid; base; ours; theirs; origin = o; at }
      ->
      advance clock;
      if Hashtbl.mem st.st_cmap (origin, rcid) then incr skipped
      else begin
        let base = remap base in
        let ours = remap ours in
        let theirs = remap theirs in
        match History.Snapshot.find_conflict_pair (recorded ()) ours theirs with
        | Some c ->
          (* we already registered this divergence from our end *)
          Hashtbl.replace st.st_cmap (origin, rcid) c.History.cid;
          incr skipped
        | None ->
          let c =
            History.add_conflict (history ()) ~base ~ours ~theirs ~origin:o ~at
          in
          Hashtbl.replace st.st_cmap (origin, rcid) c.History.cid;
          incr conflicts;
          Metrics.incr m_conflicts;
          incr applied
      end
    | Entry.Resolve { clock; conflict = rcid; winner } -> (
      advance clock;
      match Hashtbl.find_opt st.st_cmap (origin, rcid) with
      | None ->
        (* a resolution for a conflict we never mapped (lost sidecar):
           nothing safe to do — the conflict itself stays queryable *)
        incr skipped
      | Some lcid -> (
        let winner = remap winner in
        let c = History.Snapshot.find_conflict (recorded ()) lcid in
        match c.History.c_winner with
        | Some w when w = winner -> incr skipped
        | Some _ ->
          (* contradictory resolutions: keep the local one; the
             fingerprints will honestly disagree until someone decides *)
          incr skipped
        | None ->
          ignore
            (History.resolve_conflict (history ()) lcid ~winner
              : History.conflict);
          incr applied))
  in
  List.iter
    (fun (seqno, md5, payload) ->
      if Journal.frame_digest payload <> md5 then
        E.errorf `Invalid "sync frame %d from %s: checksum mismatch" seqno
          origin;
      if seqno <= cursor_of st origin then incr skipped
      else begin
        apply_entry payload;
        set_cursor st origin seqno
      end)
    frames;
  if upto > cursor_of st origin then set_cursor st origin upto;
  save_state dir st;
  { Wire.sy_applied = !applied; sy_skipped = !skipped;
    sy_conflicts = !conflicts; sy_cursor = cursor_of st origin }

(* ------------------------------------------------------------------ *)
(* Peers and the driver                                                *)
(* ------------------------------------------------------------------ *)

type peer = {
  p_digest : unit -> digest;
  p_frames : after:int -> limit:int -> (int * string * string) list;
  p_push :
    origin:string -> upto:int -> (int * string * string) list ->
    Wire.sync_stats;
}

let of_journal j =
  { p_digest = (fun () -> digest_of j);
    p_frames = (fun ~after ~limit -> Journal.frames j ~after ~limit);
    p_push = (fun ~origin ~upto frames -> apply_frames j ~origin ~upto frames)
  }

let of_client c =
  { p_digest =
      (fun () ->
        let wsid, base, seq, fp, cursors, entries = Client.sync_digest c in
        { g_wsid = wsid; g_base = base; g_seq = seq; g_fingerprint = fp;
          g_cursors = cursors; g_entries = entries });
    p_frames = (fun ~after ~limit -> Client.sync_frames c ~after ~limit);
    p_push =
      (fun ~origin ~upto frames -> Client.sync_push c ~origin ~upto frames) }

type direction = {
  d_from : string;
  d_into : string;
  d_start : int;
  d_upto : int;
  d_rounds : int;
  d_pulled : int;
  d_applied : int;
  d_skipped : int;
  d_conflicts : int;
}

type report = {
  rp_into_a : direction;
  rp_into_b : direction;
  rp_dry : bool;
}

let pull ?(dry_run = false) ?(batch = 64) ~src ~dst () =
  if batch < 1 then E.errorf `Invalid "sync batch must be positive";
  let ds = src.p_digest () in
  let dd = dst.p_digest () in
  if ds.g_wsid = dd.g_wsid then
    E.errorf `Invalid
      "both peers report workspace id %s — a cloned directory must shed \
       wsid.ddf (and sync.ddf) to sync as its own peer"
      ds.g_wsid;
  let common = common_prefix ds dd in
  let cursor =
    match List.assoc_opt ds.g_wsid dd.g_cursors with Some c -> c | None -> 0
  in
  let start = max common cursor in
  let rounds = ref 0 and pulled = ref 0 in
  let applied = ref 0 and skipped = ref 0 and conflicts = ref 0 in
  (* one bounded round per loop step; the cursor is persisted with each
     push, so a disconnect (or an injected "sync.pull" fault) loses at
     most the round in flight *)
  let rec loop after =
    if after >= ds.g_seq then after
    else begin
      Fault.fire "sync.pull";
      let t0 = Unix.gettimeofday () in
      match src.p_frames ~after ~limit:batch with
      | [] -> after
      | fs ->
        incr rounds;
        Metrics.incr m_rounds;
        let n = List.length fs in
        pulled := !pulled + n;
        Metrics.incr ~by:n m_frames;
        let upto =
          match List.rev fs with (s, _, _) :: _ -> s | [] -> assert false
        in
        if not dry_run then begin
          let stats = dst.p_push ~origin:ds.g_wsid ~upto fs in
          applied := !applied + stats.Wire.sy_applied;
          skipped := !skipped + stats.Wire.sy_skipped;
          conflicts := !conflicts + stats.Wire.sy_conflicts
        end;
        let dur_us = (Unix.gettimeofday () -. t0) *. 1e6 in
        Metrics.observe h_round dur_us;
        if Obs.enabled () then
          Obs.complete ~cat:"sync" ~dur_us
            ~attrs:[ ("from", Obs.Str ds.g_wsid); ("frames", Obs.Int n) ]
            "sync.round";
        loop upto
    end
  in
  let final = loop start in
  (* nothing to pull but the cursor lags the common prefix: advance it
     with an empty ack so later digest scans start further along *)
  if (not dry_run) && !pulled = 0 && start > cursor then
    ignore (dst.p_push ~origin:ds.g_wsid ~upto:start [] : Wire.sync_stats);
  { d_from = ds.g_wsid; d_into = dd.g_wsid; d_start = start; d_upto = final;
    d_rounds = !rounds; d_pulled = !pulled; d_applied = !applied;
    d_skipped = !skipped; d_conflicts = !conflicts }

let run ?(dry_run = false) ?batch ~a ~b () =
  Obs.with_span ~cat:"sync" "sync.session" @@ fun () ->
  (* direction two re-fetches digests, so everything direction one
     merged (including freshly registered conflicts) flows straight
     back — one run converges the data, and the second run only
     carries conflict registrations the later side created *)
  let into_a = pull ~dry_run ?batch ~src:b ~dst:a () in
  let into_b = pull ~dry_run ?batch ~src:a ~dst:b () in
  { rp_into_a = into_a; rp_into_b = into_b; rp_dry = dry_run }

let pp_direction ppf d =
  Format.fprintf ppf
    "%s <- %s: %d frames in %d rounds (start %d, through %d): %d applied, %d \
     skipped, %d conflicts"
    d.d_into d.d_from d.d_pulled d.d_rounds d.d_start d.d_upto d.d_applied
    d.d_skipped d.d_conflicts

let pp_report ppf r =
  Format.fprintf ppf "%s@[<v>%a@,%a@]"
    (if r.rp_dry then "dry run:\n" else "")
    pp_direction r.rp_into_a pp_direction r.rp_into_b
