(* A durable write-ahead log for the design database.

   Layout of a database directory:

     snapshot.ddf   the checkpoint (Workspace_file format v2): instance
                    meta-data, history, clock and flows; each payload
                    is a reference to its cemented put frame, inline
                    only when cement lacks that put.  Optional.
     wal.ddf        framed log entries appended since the snapshot
     base.ddf       sequence number folded into the snapshot
     cemented/      the cement store: every compacted wal frame

   Each log frame is

     J1 <payload-bytes> <md5-hex>\n
     <payload>\n

   where <payload> is one s-expression:

     (put (iid N) (clock C) (entity E) (hash H) (meta M) (value V))
     (note (iid N) (meta M))
     (record (clock C) R)               ; R as in Workspace_file
     (conflict (clock C) (id N) (base B) (ours O) (theirs T)
               (origin S) (at A))       ; sync divergence registered
     (resolve (clock C) (id N) (winner W))

   The frame header makes entries self-delimiting and the checksum
   makes a torn tail (crash mid-append) detectable: recovery truncates
   the log at the last complete frame and replays the rest.  Entries
   carry the engine's logical clock so replay restores it exactly;
   counters (next iid / next rid) are restored through the stores'
   [tick] accessors.

   Sequence numbers.  Every entry ever journaled has a global sequence
   number: the snapshot covers entries 1..base (persisted in base.ddf,
   0 when absent), the wal holds base+1..seq.  Seqnos are not written
   into the frames — the i-th wal frame is entry base+i — so the disk
   format is unchanged; they exist so a replication stream can name
   frames exactly ([entries_since], [apply], the frame observer). *)

open Ddf_store
open Ddf_history
module S = Ddf_persist.Sexp
module W = Ddf_persist.Workspace_file
module Codec = Ddf_persist.Codec
module Cement = Ddf_cement.Cement

exception Journal_error = Ddf_core.Error.Ddf_error
(* Deprecated alias: the journal raises the shared typed error now. *)

module Fault = Ddf_fault.Fault

let journal_errorf ?(code = `Internal) fmt = Ddf_core.Error.errorf code fmt

let m_appends = Ddf_obs.Metrics.counter "journal.appends"
let m_replayed = Ddf_obs.Metrics.counter "journal.replayed_entries"
let m_compactions = Ddf_obs.Metrics.counter "journal.compactions"
let m_torn = Ddf_obs.Metrics.counter "journal.torn_tails"
let m_syncs = Ddf_obs.Metrics.counter "journal.syncs"
let h_batch = Ddf_obs.Metrics.histogram "journal.group_commit_batch"
let h_compact = Ddf_obs.Metrics.histogram "journal.compact_seconds"

(* When is an entry durable?
     [Always] - fsync inside every append: an entry is on disk before
       the caller proceeds.  Safest, one disk flush per write.
     [Group]  - appends only flush to the OS; durability happens at the
       next [sync], which fsyncs once for every entry buffered since
       the previous one (classic WAL group commit).  The design server
       drains its write queue in batches and syncs once per batch, so
       a write is acknowledged only after its batch is durable.
     [Never]  - no fsync at all, for replay-only followers and
       benchmark scaffolding: a machine crash may lose the tail, a
       clean process exit loses nothing. *)
type sync_mode = Always | Group | Never

let sync_mode_of_string = function
  | "always" -> Some Always
  | "group" -> Some Group
  | "none" | "never" -> Some Never
  | _ -> None

let sync_mode_to_string = function
  | Always -> "always"
  | Group -> "group"
  | Never -> "none"

type t = {
  j_dir : string;
  j_ctx : Ddf_exec.Engine.context;
  j_registry : Ddf_tools.Encapsulation.registry option;
  mutable j_oc : out_channel;        (* wal.ddf, append mode *)
  mutable j_entries : int;           (* entries since the snapshot *)
  mutable j_base : int;              (* seq folded into the snapshot *)
  mutable j_seq : int;               (* seq of the last entry = base + entries *)
  j_truncated : int;                 (* torn-tail bytes dropped on open *)
  mutable j_closed : bool;
  mutable j_failed : string option;  (* fail-stop reason, sticky until reopen *)
  mutable j_frame_obs : (int -> string -> unit) option;
  compact_every : int;
  mutable j_sync_mode : sync_mode;
  mutable j_pending : int;           (* entries since the last durability point *)
  j_cement : Cement.t;
}

let context j = j.j_ctx
let dir j = j.j_dir
let entries_since_snapshot j = j.j_entries
let truncated_on_open j = j.j_truncated
let seq j = j.j_seq
let base_seq j = j.j_base

let set_frame_observer j f = j.j_frame_obs <- Some f
let clear_frame_observer j = j.j_frame_obs <- None

let sync_mode j = j.j_sync_mode
let set_sync_mode j m = j.j_sync_mode <- m
let failed j = j.j_failed

let m_failures = Ddf_obs.Metrics.counter "journal.failures"

(* A write-path failure (fsync error, short write, injected fault)
   fail-stops the journal: the wal's good prefix stays intact and every
   later append/sync/compact refuses with [`Unavailable].  Continuing
   to append past a failed or torn frame would bury it mid-log, and
   recovery truncates at the FIRST bad frame — acknowledged entries
   after it would silently vanish.  Fail-stop makes that impossible:
   un-acked writes error out, acked ones stay replayable. *)
let fail_stop j e =
  if j.j_failed = None then begin
    j.j_failed <- Some (Printexc.to_string e);
    Ddf_obs.Metrics.incr m_failures
  end;
  raise e

let check_writable j =
  match j.j_failed with
  | Some reason ->
    journal_errorf ~code:`Unavailable "journal failed (fail-stop): %s" reason
  | None -> ()

let snapshot_path dir = Filename.concat dir "snapshot.ddf"
let wal_path dir = Filename.concat dir "wal.ddf"
let base_path dir = Filename.concat dir "base.ddf"
let cemented_dir dir = Filename.concat dir "cemented"

let snapshot_file j = snapshot_path j.j_dir

(* The base seqno is a tiny self-checking text file, written atomically
   (tmp + rename) so a crash leaves either the old or the new base. *)
let read_base dir =
  if not (Sys.file_exists (base_path dir)) then 0
  else
    let ic = open_in_bin (base_path dir) in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match String.split_on_char ' ' (String.trim line) with
    | [ "B1"; n ] -> (
      match int_of_string_opt n with
      | Some b when b >= 0 -> b
      | Some _ | None -> journal_errorf "base.ddf: bad sequence %S" n)
    | _ -> journal_errorf "base.ddf: malformed (%S)" line

let write_base dir base =
  let tmp = base_path dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Printf.fprintf oc "B1 %d\n" base;
     flush oc;
     (* an fsync failure here must fail the caller: renaming a base
        that may not be on disk would report durability that didn't
        happen *)
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp (base_path dir)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let write_frame oc payload =
  let frame =
    Printf.sprintf "J1 %d %s\n%s\n" (String.length payload)
      (Digest.to_hex (Digest.string payload))
      payload
  in
  (match Fault.check "journal.torn_write" with
  | Some (Fault.Torn k) ->
    (* a crash mid-append: only a prefix of the frame reaches the file *)
    output_string oc (String.sub frame 0 (min k (String.length frame)));
    flush oc;
    raise (Fault.Injected "journal.torn_write")
  | Some Fault.Fail -> raise (Fault.Injected "journal.torn_write")
  | Some (Fault.Delay _) | None -> output_string oc frame);
  flush oc

(* Read one frame; [None] cleanly at end of file.  A short, malformed
   or checksum-failing frame raises [Torn] with the offset where the
   good prefix ends. *)
exception Torn of int

let read_frame ic =
  let start = pos_in ic in
  match input_line ic with
  | exception End_of_file -> None
  | header ->
    (match String.split_on_char ' ' header with
    | [ "J1"; len; digest ] ->
      let len =
        match int_of_string_opt len with
        | Some n when n >= 0 -> n
        | Some _ | None -> raise (Torn start)
      in
      let payload =
        try really_input_string ic (len + 1) with End_of_file -> raise (Torn start)
      in
      if payload.[len] <> '\n' then raise (Torn start);
      let payload = String.sub payload 0 len in
      if Digest.to_hex (Digest.string payload) <> digest then raise (Torn start);
      Some payload
    | _ -> raise (Torn start))

(* ------------------------------------------------------------------ *)
(* Entry codec                                                         *)
(* ------------------------------------------------------------------ *)

let put_to_sexp ~clock (inst : Ddf_data.value Store.instance) value =
  S.list
    [ S.atom "put"; S.field "iid" [ S.int inst.Store.iid ];
      S.field "clock" [ S.int clock ];
      S.field "entity" [ S.atom inst.Store.entity ];
      S.field "hash" [ S.atom inst.Store.data_hash ];
      S.field "meta" [ W.meta_to_sexp inst.Store.meta ];
      S.field "value" [ Codec.value_to_sexp value ] ]

let note_to_sexp (inst : Ddf_data.value Store.instance) =
  S.list
    [ S.atom "note"; S.field "iid" [ S.int inst.Store.iid ];
      S.field "meta" [ W.meta_to_sexp inst.Store.meta ] ]

let record_to_sexp ~clock r =
  S.list
    [ S.atom "record"; S.field "clock" [ S.int clock ]; W.record_to_sexp r ]

let conflict_to_sexp ~clock (c : History.conflict) =
  S.list
    [ S.atom "conflict"; S.field "clock" [ S.int clock ];
      S.field "id" [ S.int c.History.cid ];
      S.field "base" [ S.int c.History.c_base ];
      S.field "ours" [ S.int c.History.c_ours ];
      S.field "theirs" [ S.int c.History.c_theirs ];
      S.field "origin" [ S.atom c.History.c_origin ];
      S.field "at" [ S.int c.History.c_at ] ]

let resolve_to_sexp ~clock (c : History.conflict) winner =
  S.list
    [ S.atom "resolve"; S.field "clock" [ S.int clock ];
      S.field "id" [ S.int c.History.cid ];
      S.field "winner" [ S.int winner ] ]

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* [lenient] makes replay idempotent: an entry whose effect is already
   present (same instance/record/conflict with identical content) is
   skipped instead of raising "log out of order".  Only [replay_wal]
   passes it — a crash inside [compact] between the snapshot rename and
   the base.ddf write leaves a NEW snapshot with the OLD base and a
   full wal, so restart replays entries the snapshot already folded in.
   Divergent content under a replayed id still errors: leniency covers
   exact re-application, never conflicting history.

   Returns whether the entry changed anything: [false] means its whole
   effect was already present.  A wal whose every entry replays as
   [false] is a leftover from an interrupted compaction — [open_] uses
   that signal (confirmed against the cement watermark) to finish the
   truncation instead of double-counting the frames. *)
let replay_entry ?(lenient = false) ctx payload =
  let sexp =
    try S.of_string payload
    with S.Sexp_error m -> journal_errorf "log entry: %s" m
  in
  let store = ctx.Ddf_exec.Engine.store in
  match S.as_list sexp with
  | S.Atom "put" :: fields ->
    let iid = S.as_int (S.one "iid" (S.find_field fields "iid")) in
    let clock = S.as_int (S.one "clock" (S.find_field fields "clock")) in
    let entity = S.as_atom (S.one "entity" (S.find_field fields "entity")) in
    let stored_hash = S.as_atom (S.one "hash" (S.find_field fields "hash")) in
    let meta = W.meta_of_sexp (S.one "meta" (S.find_field fields "meta")) in
    let value =
      try Codec.value_of_sexp (S.one "value" (S.find_field fields "value"))
      with Codec.Codec_error m -> journal_errorf "entry for #%d: %s" iid m
    in
    let hash = Ddf_data.hash value in
    if hash <> stored_hash then
      journal_errorf "instance %d: content hash mismatch (log corrupt?)" iid;
    let applied =
      if lenient && Store.mem store iid then begin
        let inst = Store.find store iid in
        if inst.Store.entity <> entity || inst.Store.data_hash <> hash then
          journal_errorf
            "instance %d already present with different content (log \
             corrupt?)"
            iid;
        false
      end
      else begin
        let got = Store.put store ~entity ~hash ~meta value in
        if got <> iid then
          journal_errorf "log out of order: instance %d replayed as %d" iid
            got;
        true
      end
    in
    ctx.Ddf_exec.Engine.clock <- max ctx.Ddf_exec.Engine.clock clock;
    applied
  | S.Atom "note" :: fields ->
    let iid = S.as_int (S.one "iid" (S.find_field fields "iid")) in
    let meta = W.meta_of_sexp (S.one "meta" (S.find_field fields "meta")) in
    if not (Store.mem store iid) then
      journal_errorf "annotation of unknown instance %d" iid;
    let inst = Store.find store iid in
    if
      lenient
      && inst.Store.meta.Store.label = meta.Store.label
      && inst.Store.meta.Store.comment = meta.Store.comment
      && inst.Store.meta.Store.keywords = meta.Store.keywords
    then false
    else begin
      Store.annotate store iid ~label:meta.Store.label
        ~comment:meta.Store.comment ~keywords:meta.Store.keywords ();
      true
    end
  | [ S.Atom "record"; clock_field; r ] ->
    let clock =
      match clock_field with
      | S.List [ S.Atom "clock"; c ] -> S.as_int c
      | _ -> journal_errorf "malformed record entry"
    in
    let p =
      try W.record_of_sexp r
      with W.Persist_error m -> journal_errorf "record entry: %s" m
    in
    let history = ctx.Ddf_exec.Engine.history in
    let applied =
      if lenient && p.W.rp_rid < History.tick history then begin
        (* raises if the claimed record was never actually replayed *)
        ignore (History.find history p.W.rp_rid);
        false
      end
      else begin
        let r =
          History.add history ctx.Ddf_exec.Engine.store
            ctx.Ddf_exec.Engine.schema ~task_entity:p.W.rp_task_entity
            ~tool:p.W.rp_tool ~inputs:p.W.rp_inputs ~outputs:p.W.rp_outputs
            ~at:p.W.rp_at
        in
        if r.History.rid <> p.W.rp_rid then
          journal_errorf "log out of order: record %d replayed as %d"
            p.W.rp_rid r.History.rid;
        true
      end
    in
    ctx.Ddf_exec.Engine.clock <- max ctx.Ddf_exec.Engine.clock clock;
    applied
  | S.Atom "conflict" :: fields ->
    let int_f name = S.as_int (S.one name (S.find_field fields name)) in
    let clock = int_f "clock" in
    let cid = int_f "id" in
    let history = ctx.Ddf_exec.Engine.history in
    let applied =
      if lenient && cid < History.conflict_tick history then begin
        ignore (History.find_conflict history cid);
        false
      end
      else begin
        let c =
          History.add_conflict history ~base:(int_f "base")
            ~ours:(int_f "ours") ~theirs:(int_f "theirs")
            ~origin:(S.as_atom (S.one "origin" (S.find_field fields "origin")))
            ~at:(int_f "at")
        in
        if c.History.cid <> cid then
          journal_errorf "log out of order: conflict %d replayed as %d" cid
            c.History.cid;
        true
      end
    in
    ctx.Ddf_exec.Engine.clock <- max ctx.Ddf_exec.Engine.clock clock;
    applied
  | S.Atom "resolve" :: fields ->
    let int_f name = S.as_int (S.one name (S.find_field fields name)) in
    let clock = int_f "clock" in
    let cid = int_f "id" in
    let winner = int_f "winner" in
    let history = ctx.Ddf_exec.Engine.history in
    let already =
      lenient
      && (match History.find_conflict history cid with
         | c -> c.History.c_winner = Some winner
         | exception _ -> false)
    in
    if not already then
      ignore (History.resolve_conflict history cid ~winner);
    ctx.Ddf_exec.Engine.clock <- max ctx.Ddf_exec.Engine.clock clock;
    not already
  | _ -> journal_errorf "unknown log entry kind"

(* ------------------------------------------------------------------ *)
(* Observers: the live write path                                      *)
(* ------------------------------------------------------------------ *)

(* One durability point: fsync the wal and record how many entries the
   flush covered (the group-commit batch size). *)
let fsync_now j =
  let t0 = Unix.gettimeofday () in
  let batch = j.j_pending in
  flush j.j_oc;
  Fault.fire "journal.fsync";
  Unix.fsync (Unix.descr_of_out_channel j.j_oc);
  Ddf_obs.Metrics.incr m_syncs;
  if j.j_pending > 0 then
    Ddf_obs.Metrics.observe h_batch (float_of_int j.j_pending);
  j.j_pending <- 0;
  (* inherits the writer thread's current span, so the fsync shows up
     inside the write job (or batch-sync span) that forced it *)
  if Ddf_obs.Obs.enabled () then
    Ddf_obs.Obs.complete ~cat:"journal"
      ~dur_us:((Unix.gettimeofday () -. t0) *. 1e6)
      ~attrs:[ ("batch", Ddf_obs.Obs.Int batch) ]
      "journal.fsync"

let append j payload =
  if not j.j_closed then begin
    check_writable j;
    (match
       write_frame j.j_oc payload;
       j.j_entries <- j.j_entries + 1;
       j.j_seq <- j.j_seq + 1;
       j.j_pending <- j.j_pending + 1;
       Ddf_obs.Metrics.incr m_appends;
       if j.j_sync_mode = Always then fsync_now j
     with
    | () -> ()
    | exception e -> fail_stop j e);
    (* written first, then shipped: the frame observer (the replication
       fan-out) sees an entry only after the local wal has it — on disk
       in [Always] mode, flushed to the OS in [Group]/[Never] (the
       entry becomes durable at the batch's [sync]) *)
    match j.j_frame_obs with
    | Some f -> f j.j_seq payload
    | None -> ()
  end

let attach j =
  let ctx = j.j_ctx in
  Store.set_observer ctx.Ddf_exec.Engine.store (function
    | Store.Put (inst, value) ->
      append j
        (S.to_string (put_to_sexp ~clock:ctx.Ddf_exec.Engine.clock inst value))
    | Store.Annotated inst -> append j (S.to_string (note_to_sexp inst)));
  History.set_observer ctx.Ddf_exec.Engine.history (fun r ->
      append j
        (S.to_string (record_to_sexp ~clock:ctx.Ddf_exec.Engine.clock r)));
  History.set_conflict_observer ctx.Ddf_exec.Engine.history (fun ev ->
      let clock = ctx.Ddf_exec.Engine.clock in
      match ev with
      | History.Conflict_added c ->
        append j (S.to_string (conflict_to_sexp ~clock c))
      | History.Conflict_resolved c ->
        let winner = Option.get c.History.c_winner in
        append j (S.to_string (resolve_to_sexp ~clock c winner)))

let detach j =
  Store.clear_observer j.j_ctx.Ddf_exec.Engine.store;
  History.clear_observer j.j_ctx.Ddf_exec.Engine.history;
  History.clear_conflict_observer j.j_ctx.Ddf_exec.Engine.history

(* ------------------------------------------------------------------ *)
(* Open / close / compaction                                           *)
(* ------------------------------------------------------------------ *)

let fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Directory fsync: a rename is only durable once the directory entry
   itself reaches disk — without this, a power cut after [compact] or
   [reset_to_snapshot_file] can resurrect the pre-rename snapshot/base.
   Real I/O errors are swallowed (the fsync is belt-and-braces on
   filesystems that journal renames anyway), but the
   [journal.dir_fsync] crash point fires through so the fault sweep
   can kill the process exactly here. *)
let fsync_dir dir =
  Fault.fire "journal.dir_fsync";
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let sync j =
  if not j.j_closed then begin
    check_writable j;
    match
      flush j.j_oc;
      if j.j_pending > 0 then
        match j.j_sync_mode with
        | Never ->
          j.j_pending <- 0 (* no durability point, just bound the count *)
        | Always | Group -> fsync_now j
    with
    | () -> ()
    | exception e -> fail_stop j e
  end

(* Replay wal.ddf into [ctx]; returns (entries, torn-tail bytes
   dropped, entries that actually applied something new).  The file is
   truncated at the first torn frame.  [applied] = 0 with entries > 0
   means the snapshot already held everything — the signal [open_]
   uses to detect a compaction that crashed between its base write and
   its wal truncation. *)
let replay_wal ctx path =
  if not (Sys.file_exists path) then (0, 0, 0)
  else begin
    let ic = open_in_bin path in
    let total = in_channel_length ic in
    let entries = ref 0 in
    let applied = ref 0 in
    let good_end =
      let rec go () =
        match read_frame ic with
        | None -> pos_in ic
        | Some payload ->
          (* lenient: a crash inside [compact] can leave a snapshot
             that already folded in a prefix of this wal *)
          if replay_entry ~lenient:true ctx payload then incr applied;
          incr entries;
          Ddf_obs.Metrics.incr m_replayed;
          go ()
      in
      try go () with Torn at -> at
    in
    close_in ic;
    let torn = total - good_end in
    if torn > 0 then begin
      Ddf_obs.Metrics.incr m_torn;
      Unix.truncate path good_end
    end;
    (!entries, torn, !applied)
  end

(* ------------------------------------------------------------------ *)
(* Tiered cold storage (the cement store)                              *)
(* ------------------------------------------------------------------ *)

let cement_stats j =
  let c = j.j_cement in
  if Cement.segment_count c = 0 then None
  else
    Some
      (Cement.segment_count c, Cement.total_bytes c, Cement.first_seq c,
       Cement.last_seq c)

(* A cemented frame payload by seqno — the cold half of the log. *)
let cold_frame j seqno = Cement.read j.j_cement seqno

(* The store's cold-load path: re-read a payload that is not resident
   (evicted, or restored from a checkpoint reference) from the cemented
   put frame that installed it.  The frame checksum was verified by
   [Cement] (a mismatch raises); the content hash is re-verified here,
   against the frame and against the instance, exactly like live
   replay does. *)
let cold_put_value c store iid =
  match Cement.find_put c ~iid with
  | None -> None
  | Some payload -> (
    let sexp =
      try S.of_string payload
      with S.Sexp_error m -> journal_errorf "cemented entry: %s" m
    in
    match S.as_list sexp with
    | S.Atom "put" :: fields ->
      let stored_hash = S.as_atom (S.one "hash" (S.find_field fields "hash")) in
      let value =
        try Codec.value_of_sexp (S.one "value" (S.find_field fields "value"))
        with Codec.Codec_error m ->
          journal_errorf "cemented entry for #%d: %s" iid m
      in
      if
        Ddf_data.hash value <> stored_hash
        || stored_hash <> Store.hash_of store iid
      then journal_errorf "cemented instance %d: content hash mismatch" iid;
      Some value
    | _ -> None)

let install_cold_loader c store = Store.set_cold_loader store (cold_put_value c store)

(* Evict resident payloads whose every owning instance can be cold-
   loaded back from cement.  Payloads are shared by content hash, so a
   hash is only droppable when ALL its owners' installing puts are
   cemented; one [Store.evict] per hash drops it for every owner.
   Returns the number of payloads evicted. *)
let evict_cold j =
  let store = j.j_ctx.Ddf_exec.Engine.store in
  let cold = Hashtbl.create 256 in
  Cement.iter_puts j.j_cement (fun iid -> Hashtbl.replace cold iid ());
  let owners = Hashtbl.create 256 in
  (* hash -> (droppable so far, representative iid) *)
  List.iter
    (fun iid ->
      let h = Store.hash_of store iid in
      let ok = Hashtbl.mem cold iid in
      match Hashtbl.find_opt owners h with
      | None -> Hashtbl.replace owners h (ok, iid)
      | Some (all_ok, rep) -> Hashtbl.replace owners h (all_ok && ok, rep))
    (Store.all_instances store);
  let n = ref 0 in
  Hashtbl.iter
    (fun _h (all_ok, rep) ->
      if all_ok && Store.payload_resident store rep && Store.evict store rep
      then incr n)
    owners;
  !n

let open_ ?registry ?(compact_every = 10_000) ?(sync_mode = Group) ~dir schema =
  if compact_every < 1 then journal_errorf "compact_every must be positive";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if not (Sys.is_directory dir) then journal_errorf "%s is not a directory" dir;
  (* cement first (torn-tail recovery on its newest segment happens
     here): the checkpoint's payload references are checked against
     its put map as the checkpoint loads *)
  let cement = Cement.open_ ~dir:(cemented_dir dir) in
  let ctx =
    if Sys.file_exists (snapshot_path dir) then
      let session =
        try
          W.load_file ?registry
            ~cemented:(fun iid -> Cement.put_seq cement ~iid)
            schema (snapshot_path dir)
        with W.Persist_error m -> journal_errorf "snapshot: %s" m
      in
      Ddf_session.Session.context session
    else Ddf_exec.Engine.create_context ?registry schema
  in
  install_cold_loader cement ctx.Ddf_exec.Engine.store;
  let entries, torn, applied = replay_wal ctx (wal_path dir) in
  (* counters were restored by dense re-insertion; assert the ticks
     agree with the contents before trusting the database *)
  let store = ctx.Ddf_exec.Engine.store in
  if Store.tick store <> Store.instance_count store + 1 then
    journal_errorf "instance counter %d does not match %d instances"
      (Store.tick store)
      (Store.instance_count store);
  if History.tick ctx.Ddf_exec.Engine.history
     <> History.size ctx.Ddf_exec.Engine.history + 1
  then journal_errorf "record counter disagrees with the history size";
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (wal_path dir)
  in
  let base = read_base dir in
  let j =
    { j_dir = dir; j_ctx = ctx; j_registry = registry; j_oc = oc;
      j_entries = entries; j_base = base; j_seq = base + entries;
      j_truncated = torn; j_closed = false; j_failed = None;
      j_frame_obs = None; compact_every;
      j_sync_mode = sync_mode; j_pending = 0; j_cement = cement }
  in
  (* Crash between compact's base write and its wal truncation: replay
     proved the wal fully redundant (nothing applied) while the cement
     watermark sits exactly at the new base — so these frames are the
     pre-compaction wal, already folded into both snapshot and cement.
     Complete the interrupted truncation instead of double-counting
     them into the seqno line.  (The other crash window — snapshot
     renamed, base still old — is left alone: there the cement
     watermark equals base + entries, not base.) *)
  if applied = 0 && entries > 0 && base > 0 && Cement.last_seq cement = base
  then begin
    close_out j.j_oc;
    j.j_oc <-
      open_out_gen
        [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
        0o644 (wal_path dir);
    j.j_entries <- 0;
    j.j_seq <- base
  end;
  attach j;
  j

(* Wal entries with seqno > [since], as (seqno, payload) ascending.
   Reads the file back from its start (the i-th frame is entry
   base+i); callers must exclude writers so the file ends exactly at
   the last complete frame. *)
let wal_tail j since =
  flush j.j_oc;
  if not (Sys.file_exists (wal_path j.j_dir)) then []
  else begin
    let ic = open_in_bin (wal_path j.j_dir) in
    let frames = ref [] in
    let n = ref j.j_base in
    (try
       let rec go () =
         match read_frame ic with
         | None -> ()
         | Some payload ->
           incr n;
           if !n > since then frames := (!n, payload) :: !frames;
           go ()
       in
       (try go () with Torn at -> journal_errorf "wal torn mid-read at %d" at)
     with e ->
       close_in_noerr ic;
       raise e);
    close_in ic;
    List.rev !frames
  end

(* Write [text] as the new checkpoint: temp file, fsync, rename.  The
   rename is pinned by the caller's directory fsync. *)
let write_checkpoint dir text =
  let tmp = snapshot_path dir ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc text;
     fsync_oc oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp (snapshot_path dir)

(* Fold the wal into cement and a fresh checkpoint, then truncate it.

   Order: cement fold (durable on return) -> checkpoint rename -> base
   write -> one directory fsync -> wal truncation.  The checkpoint
   references only puts [Cement.fold] made durable before its rename,
   so it never has to read a payload; a crash at any point leaves
   either the old checkpoint (whose references are older frames,
   untouched) or the new one, and open-time replay repairs the rest.
   The [journal.compact] fault point fires after the fold, after the
   checkpoint rename and after the base write (no fold hit when cement
   is restarted: there the fold follows the rename). *)
let compact j =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  check_writable j;
  Ddf_obs.Metrics.incr m_compactions;
  let t0 = Unix.gettimeofday () in
  let c = j.j_cement in
  let frames = if j.j_entries > 0 then wal_tail j j.j_base else [] in
  let session = Ddf_session.Session.of_context j.j_ctx in
  if Cement.last_seq c <> 0 && Cement.last_seq c < j.j_base then begin
    (* A cold store that stops short of the base (a torn segment
       dropped on open, or a directory copied from another line) cannot
       be extended contiguously: start it over.  The current checkpoint
       may reference frames the clear deletes, so it is first replaced
       by a self-contained one — every payload read back while cement
       still holds it — and that rename is pinned before anything is
       deleted. *)
    write_checkpoint j.j_dir (W.save session);
    fsync_dir j.j_dir;
    Cement.clear c;
    Cement.fold c ~first:(j.j_base + 1) frames
  end
  else begin
    Cement.fold c ~first:(j.j_base + 1) frames;
    Fault.fire "journal.compact";
    write_checkpoint j.j_dir
      (W.save ~cemented:(fun iid -> Cement.put_seq c ~iid) session)
  end;
  Fault.fire "journal.compact";
  write_base j.j_dir j.j_seq;
  Fault.fire "journal.compact";
  (* one directory fsync pins BOTH renames (snapshot.ddf and base.ddf):
     without it a power cut can resurrect the old directory entries
     even though both files were themselves fsynced *)
  fsync_dir j.j_dir;
  (* the log's contents are folded into the checkpoint: restart it *)
  close_out j.j_oc;
  j.j_oc <-
    open_out_gen
      [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
      0o644 (wal_path j.j_dir);
  j.j_entries <- 0;
  j.j_base <- j.j_seq;
  (* every journaled entry is folded into the fsynced checkpoint: this
     is a durability point even for entries not yet fsynced in the wal *)
  j.j_pending <- 0;
  Ddf_obs.Metrics.observe h_compact (Unix.gettimeofday () -. t0)

let maybe_compact j =
  if (not j.j_closed) && j.j_entries >= j.compact_every then begin
    compact j;
    true
  end
  else false

let close j =
  if not j.j_closed then begin
    detach j;
    (* best effort: a failed (or failing) journal still closes — its
       good prefix is already safe, and close is called from shutdown
       paths that must stay idempotent *)
    (match
       match j.j_sync_mode with
       | Never -> flush j.j_oc
       | Always | Group -> if j.j_failed = None then fsync_now j else flush j.j_oc
     with
    | () -> ()
    | exception _ -> j.j_failed <- Some "fsync failed during close");
    close_out_noerr j.j_oc;
    Cement.close j.j_cement;
    j.j_closed <- true
  end

(* ------------------------------------------------------------------ *)
(* Replication: tailing, follower application, snapshot resync         *)
(* ------------------------------------------------------------------ *)

let m_applied = Ddf_obs.Metrics.counter "journal.replicated_applies"
let m_resyncs = Ddf_obs.Metrics.counter "journal.snapshot_resyncs"

type tail =
  | Frames of (int * string) list
  | Snapshot_needed

(* Entries with seqno > [since], read back from the on-disk wal.  The
   i-th frame of the wal is entry base+i.  Callers must exclude writers
   (the server reads the tail from its single-writer loop), so the file
   ends exactly at the last complete frame. *)
let entries_since j since =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  if since < j.j_base then Snapshot_needed
  else if since >= j.j_seq then Frames []
  else Frames (wal_tail j since)

(* Anti-entropy support: the digest a peer compares against, and exact
   frame extraction by seqno window.  Both read the wal back from disk
   (writers excluded, like [entries_since]); frames are hashed with the
   same md5 the frame header carries, so a digest mismatch means the
   histories genuinely diverge at that seqno. *)

let frame_digest payload = Digest.to_hex (Digest.string payload)

(* (seqno, md5) for every wal frame, ascending — entries base+1..seq. *)
let digest j =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  flush j.j_oc;
  if not (Sys.file_exists (wal_path j.j_dir)) then []
  else begin
    let ic = open_in_bin (wal_path j.j_dir) in
    let out = ref [] in
    let n = ref j.j_base in
    (try
       let rec go () =
         match read_frame ic with
         | None -> ()
         | Some payload ->
           incr n;
           out := (!n, frame_digest payload) :: !out;
           go ()
       in
       (try go () with Torn at -> journal_errorf "wal torn mid-read at %d" at)
     with e ->
       close_in_noerr ic;
       raise e);
    close_in ic;
    List.rev !out
  end

(* At most [limit] frames with seqno > [after], as (seqno, md5,
   payload) ascending.  Frames below the snapshot base are served from
   the cement store when it covers them (positioned reads, no replay);
   asking below both is a typed conflict: those frames are gone. *)
let rec frames j ~after ~limit =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  if limit < 0 then journal_errorf ~code:`Invalid "negative frame limit";
  if after < j.j_base then begin
    let c = j.j_cement in
    let served_cold =
      if Cement.first_seq c <> 0 && after + 1 >= Cement.first_seq c then begin
        let out = ref [] in
        let taken = ref 0 in
        Cement.iter_range c ~from:(after + 1)
          ~upto:(min j.j_base (after + limit))
          (fun seqno payload ->
            if !taken < limit then begin
              incr taken;
              out := (seqno, frame_digest payload, payload) :: !out
            end);
        Some (List.rev !out)
      end
      else None
    in
    match served_cold with
    | None ->
      journal_errorf ~code:`Conflict
        "frames before %d were compacted away (asked for > %d)" j.j_base after
    | Some cold ->
      let got = List.length cold in
      if got < limit then
        cold @ frames j ~after:j.j_base ~limit:(limit - got)
      else cold
  end
  else begin
  flush j.j_oc;
  if after >= j.j_seq || limit = 0 then []
  else begin
    let ic = open_in_bin (wal_path j.j_dir) in
    let out = ref [] in
    let taken = ref 0 in
    let n = ref j.j_base in
    (try
       let rec go () =
         if !taken < limit then
           match read_frame ic with
           | None -> ()
           | Some payload ->
             incr n;
             if !n > after then begin
               incr taken;
               out := (!n, frame_digest payload, payload) :: !out
             end;
             go ()
       in
       (try go () with Torn at -> journal_errorf "wal torn mid-read at %d" at)
     with e ->
       close_in_noerr ic;
       raise e);
    close_in ic;
    List.rev !out
  end
  end

(* A stable workspace identity for the sync fabric, minted on first
   use and persisted next to the wal.  A cloned database directory
   must shed [wsid.ddf] (like a machine-id) so the clone syncs as its
   own peer. *)
let wsid_path dir = Filename.concat dir "wsid.ddf"

let wsid j =
  let path = wsid_path j.j_dir in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match String.split_on_char ' ' (String.trim line) with
    | [ "W1"; id ] when id <> "" -> id
    | _ -> journal_errorf "wsid.ddf: malformed (%S)" line
  end
  else begin
    let id =
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "%s|%d|%f|%d" j.j_dir (Unix.getpid ())
              (Unix.gettimeofday ()) (Random.bits ())))
    in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       Printf.fprintf oc "W1 %s\n" id;
       flush oc;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path;
    id
  end

(* The full current state as a replication seed: (seqno, workspace
   save).  Like [entries_since], call this with writers excluded. *)
let snapshot_state j =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  (j.j_seq, W.save (Ddf_session.Session.of_context j.j_ctx))

(* Apply one replicated frame: replay the payload into the context and
   append the identical bytes to the local wal, so a follower's journal
   is byte-for-byte the primary's log suffix and the follower is itself
   crash-safe (and promotable).  The payload's integrity was already
   checked frame-by-frame in transit; [replay_entry] re-verifies the
   content hash and dense-id ordering on application.

   Note the clock is pre-set from the payload before the entry is
   applied, and observers stay detached during application: the bytes
   written locally are the primary's bytes, not a re-encoding (a
   re-encoding after [Store.put] would stamp a stale clock). *)
let apply j ~seq payload =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  check_writable j;
  if seq <> j.j_seq + 1 then
    journal_errorf ~code:`Conflict "replication gap: expected entry %d, got %d"
      (j.j_seq + 1) seq;
  detach j;
  (try ignore (replay_entry j.j_ctx payload : bool)
   with e ->
     attach j;
     raise e);
  attach j;
  (match
     write_frame j.j_oc payload;
     j.j_entries <- j.j_entries + 1;
     j.j_seq <- seq;
     j.j_pending <- j.j_pending + 1;
     if j.j_sync_mode = Always then fsync_now j
   with
  | () -> ()
  | exception e -> fail_stop j e);
  Ddf_obs.Metrics.incr m_applied;
  match j.j_frame_obs with
  | Some f -> f j.j_seq payload
  | None -> ()

(* Replace the whole database with a primary's snapshot (the catch-up
   path when our seqno predates the primary's oldest wal entry, e.g.
   after a primary compaction).  Disk first — snapshot.ddf via atomic
   rename, base.ddf, truncated wal — then the in-memory context is
   swapped to the freshly loaded store/history/clock in place, so
   sessions holding the context observe the new state. *)
(* Shared tail of both reset flavours, entered with the new
   snapshot.ddf already renamed into place and observers detached. *)
let finish_reset j ~seq fresh =
  write_base j.j_dir seq;
  (* one directory fsync pins both renames (snapshot + base) *)
  fsync_dir j.j_dir;
  close_out j.j_oc;
  j.j_oc <-
    open_out_gen
      [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
      0o644 (wal_path j.j_dir);
  j.j_ctx.Ddf_exec.Engine.store <- fresh.Ddf_exec.Engine.store;
  j.j_ctx.Ddf_exec.Engine.history <- fresh.Ddf_exec.Engine.history;
  j.j_ctx.Ddf_exec.Engine.clock <- fresh.Ddf_exec.Engine.clock;
  j.j_entries <- 0;
  j.j_base <- seq;
  j.j_seq <- seq;
  j.j_pending <- 0;
  (* the resync rebased the seqno line: the cemented history belongs
     to the pre-reset database and can never be extended contiguously.
     The new checkpoint is self-contained, so clearing after its
     rename is safe. *)
  Cement.clear j.j_cement;
  (* the fresh store needs the cold loader re-wired (it replaced the
     one the loader was installed on) *)
  install_cold_loader j.j_cement fresh.Ddf_exec.Engine.store;
  attach j

let m_stream_resyncs = Ddf_obs.Metrics.counter "journal.snapshot_stream_resyncs"

(* Move [src] over [dst] — rename when the spool shares the
   filesystem, copy-then-rename when it does not. *)
let rename_or_copy src dst =
  try Sys.rename src dst
  with Sys_error _ ->
    let ic = open_in_bin src in
    let tmp = dst ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       let buf = Bytes.create 65536 in
       let rec loop () =
         let n = input ic buf 0 (Bytes.length buf) in
         if n > 0 then begin
           output oc buf 0 n;
           loop ()
         end
       in
       loop ();
       fsync_oc oc;
       close_out oc;
       close_in ic
     with e ->
       close_out_noerr oc;
       close_in_noerr ic;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp dst;
    try Sys.remove src with Sys_error _ -> ()

(* Follower-side resync: [path] holds a workspace save spooled to disk
   in bounded chunks (a streamed bootstrap), so the snapshot bytes
   never exist as one in-memory string here.  The file is parsed FIRST
   — a malformed stream must not clobber the database — then fsynced
   and renamed into place. *)
let reset_to_snapshot_file j ~seq path =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  Ddf_obs.Metrics.incr m_resyncs;
  Ddf_obs.Metrics.incr m_stream_resyncs;
  let session =
    try W.load_file ?registry:j.j_registry j.j_ctx.Ddf_exec.Engine.schema path
    with W.Persist_error m -> journal_errorf "replication snapshot: %s" m
  in
  let fresh = Ddf_session.Session.context session in
  detach j;
  (match
     (match Unix.openfile path [ Unix.O_RDONLY ] 0 with
     | fd ->
       (try Unix.fsync fd with Unix.Unix_error _ -> ());
       Unix.close fd
     | exception Unix.Unix_error _ -> ());
     rename_or_copy path (snapshot_path j.j_dir)
   with
  | () -> ()
  | exception e ->
    attach j;
    raise e);
  finish_reset j ~seq fresh
