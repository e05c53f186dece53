(* A durable write-ahead log for the design database.

   Layout of a database directory:

     snapshot.ddf   the checkpoint (Workspace_file, checkpoint format
                    4, binary): the seq it covers, instance meta-data,
                    history, clock and flows; each payload is a
                    reference to its cemented put frame, inline only
                    when cement lacks that put.  Optional.
     wal.ddf        framed log entries appended since the last seal
     cemented/      the cement store: every sealed wal, as a segment

   Each log frame is

     J1 <payload-bytes> <md5-hex>\n
     <payload>\n

   (the framing is Cement's, shared with the segments), where
   <payload> is one binary entry (Entry: put, note, record, conflict
   or resolve).  A put carries its value as flat s-expression text: a
   wire install's bytes as the client sent them, or an engine-derived
   value printed once.  A database whose entries are s-expressions
   (entry format 1), or whose checkpoint is of an earlier format
   (checkpoint formats 1 to 3), is refused at open.

   The frame header makes entries self-delimiting and the checksum
   makes a torn tail (crash mid-append) detectable: recovery truncates
   the log at the last complete frame and replays the rest.  Entries
   carry the engine's logical clock so replay restores it exactly;
   iids and rids are dense, so the next of each ([Store.Snapshot.tick],
   [History.Snapshot.tick]) is the count replayed + 1 and needs no
   entry.

   Sequence numbers.  Every entry ever journaled has a global sequence
   number: the checkpoint covers entries 1..c (its header names c,
   and [from], the first entry of its line's cement, or of the wal when
   there is none), the cement store holds sealed wals up to its
   last_seq, and the wal holds max(c, last_seq)+1..seq.  Replay skips
   every frame at or below c by its seqno.  Seqnos are not written
   into the frames — the i-th wal frame is entry base+i — they exist
   so a replication stream can name frames exactly. *)

open Ddf_store
open Ddf_history
module W = Ddf_entry.Workspace_file
module Cement = Ddf_cement.Cement
module Entry = Ddf_entry.Entry

module Fault = Ddf_fault.Fault
module Disk = Ddf_disk.Disk

let journal_errorf ?(code = `Internal) fmt = Ddf_core.Error.errorf code fmt

let m_appends = Ddf_obs.Metrics.counter "journal.appends"
let m_replayed = Ddf_obs.Metrics.counter "journal.replayed_entries"
let m_compactions = Ddf_obs.Metrics.counter "journal.compactions"
let m_checkpoints = Ddf_obs.Metrics.counter "journal.checkpoints"
let m_torn = Ddf_obs.Metrics.counter "journal.torn_tails"
let m_syncs = Ddf_obs.Metrics.counter "journal.syncs"
let h_batch = Ddf_obs.Metrics.histogram "journal.group_commit_batch"
let h_compact = Ddf_obs.Metrics.histogram "journal.compact_seconds"
let h_checkpoint = Ddf_obs.Metrics.histogram "journal.checkpoint_seconds"
let g_lag = Ddf_obs.Metrics.gauge "journal.checkpoint_lag"

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

type t = {
  j_dir : string;
  j_ctx : Ddf_exec.Engine.context;
  j_registry : Ddf_tools.Encapsulation.registry option;
  mutable j_oc : out_channel;        (* wal.ddf, positioned at its end *)
  mutable j_index : Cement.index;    (* one index line per wal frame *)
  mutable j_entries : int;           (* frames in the wal *)
  mutable j_base : int;              (* seq before the wal's first frame *)
  mutable j_checkpoint : int;        (* seq the checkpoint covers, in its header *)
  mutable j_seq : int;               (* seq of the last entry = base + entries *)
  j_truncated : int;                 (* torn-tail bytes dropped on open *)
  mutable j_closed : bool;
  mutable j_failed : string option;  (* fail-stop reason, sticky until reopen *)
  mutable j_frame_obs : (int -> string -> unit) option;
  compact_every : int;
  j_sync_mode : sync_mode;
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

let sync_mode j = j.j_sync_mode
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
let cemented_dir dir = Filename.concat dir "cemented"

let snapshot_file j = snapshot_path j.j_dir

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* Append one frame to the wal and record its offset, kind and id for
   the seal that will make the wal a cement segment. *)
let write_frame j payload =
  let oc = j.j_oc in
  let off = pos_out oc in
  (match Fault.check "journal.torn_write" with
  | Some (Fault.Torn k) ->
    (* a crash mid-append: only a prefix of the frame reaches the file *)
    let frame = Cement.frame_header payload ^ "\n" ^ payload ^ "\n" in
    output_string oc (String.sub frame 0 (min k (String.length frame)));
    flush oc;
    raise (Fault.Injected "journal.torn_write")
  | Some Fault.Fail -> raise (Fault.Injected "journal.torn_write")
  | Some (Fault.Delay _) | None -> Cement.output_frame oc payload);
  flush oc;
  Cement.index_add j.j_index ~off payload

(* Pass [f] the seqno, offset and payload of each frame of the wal at
   [path] from byte [off], counting seqnos up from [base], until [f]
   answers [false] or the file ends.  [`End at] at a clean end (the
   file's length) or an early stop; [`Torn at] when the frame at
   offset [at] is torn.  The file is closed however the read ends. *)
let read_wal ?(off = 0) path ~base f =
  if not (Sys.file_exists path) then `End 0
  else
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    seek_in ic off;
    let rec go seq =
      let at = pos_in ic in
      match Cement.read_frame ic with
      | `End -> `End at
      | `Frame payload -> if f (seq + 1) at payload then go (seq + 1) else `End at
      | `Torn at -> `Torn at
    in
    go base

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Apply one entry; ids must come back dense, in order.  [cold] loads a
   put as a checkpoint's [cemented SEQ] slot does, its value checked at
   its first read. *)
let replay_entry ?(cold = false) ctx payload =
  let store = ctx.Ddf_exec.Engine.store in
  let history = ctx.Ddf_exec.Engine.history in
  let advance clock =
    ctx.Ddf_exec.Engine.clock <- max ctx.Ddf_exec.Engine.clock clock
  in
  match Entry.decode payload with
  | Entry.Put { iid; clock; entity; hash; meta; text } ->
    if not cold then ignore (Entry.value ~iid ~hash text);
    let got =
      if cold then Store.put_cold store ~entity ~hash ~meta
      else Store.put store ~entity ~hash ~meta text
    in
    if got <> iid then
      journal_errorf "log out of order: instance %d replayed as %d" iid got;
    advance clock
  | Entry.Note { iid; meta } ->
    if not (Store.Snapshot.mem (Store.snapshot store) iid) then
      journal_errorf "annotation of unknown instance %d" iid;
    Store.annotate store iid ~label:meta.Store.label
      ~comment:meta.Store.comment ~keywords:meta.Store.keywords ()
  | Entry.Record { clock; record = p } ->
    let r = W.add_record ctx p in
    if r.History.rid <> p.Entry.rp_rid then
      journal_errorf "log out of order: record %d replayed as %d"
        p.Entry.rp_rid r.History.rid;
    advance clock
  | Entry.Conflict { clock; conflict = cid; base; ours; theirs; origin; at } ->
    let c = History.add_conflict history ~base ~ours ~theirs ~origin ~at in
    if c.History.cid <> cid then
      journal_errorf "log out of order: conflict %d replayed as %d" cid
        c.History.cid;
    advance clock
  | Entry.Resolve { clock; conflict = cid; winner } ->
    ignore (History.resolve_conflict history cid ~winner);
    advance clock

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
  Disk.fsync j.j_oc;
  Ddf_obs.Metrics.incr m_syncs;
  if j.j_pending > 0 then
    Ddf_obs.Metrics.observe h_batch (float_of_int j.j_pending);
  j.j_pending <- 0;
  (* inherits the committing thread's current span, so the fsync shows up
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
       write_frame j payload;
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

(* A put journals the text the store keeps: a wire install's bytes as
   received, or an engine-derived value as the engine printed it. *)
let attach j =
  let ctx = j.j_ctx in
  let clock () = ctx.Ddf_exec.Engine.clock in
  let log e = append j (Entry.encode e) in
  Store.set_observer ctx.Ddf_exec.Engine.store (function
    | Store.Put (inst, text) ->
      log
        (Entry.Put
           { iid = inst.Store.iid; clock = clock ();
             entity = inst.Store.entity; hash = inst.Store.data_hash;
             meta = inst.Store.meta; text })
    | Store.Annotated inst ->
      log (Entry.Note { iid = inst.Store.iid; meta = inst.Store.meta }));
  History.set_observer ctx.Ddf_exec.Engine.history (fun r ->
      log (Entry.Record { clock = clock (); record = W.record_parts r }));
  History.set_conflict_observer ctx.Ddf_exec.Engine.history (fun ev ->
      log
        (match ev with
        | History.Conflict_added c ->
          Entry.Conflict
            { clock = clock (); conflict = c.History.cid;
              base = c.History.c_base; ours = c.History.c_ours;
              theirs = c.History.c_theirs; origin = c.History.c_origin;
              at = c.History.c_at }
        | History.Conflict_resolved c ->
          Entry.Resolve
            { clock = clock (); conflict = c.History.cid;
              winner = Option.get c.History.c_winner }))

let detach j =
  Store.clear_observer j.j_ctx.Ddf_exec.Engine.store;
  History.clear_observer j.j_ctx.Ddf_exec.Engine.history;
  History.clear_conflict_observer j.j_ctx.Ddf_exec.Engine.history

(* ------------------------------------------------------------------ *)
(* Open / close / compaction                                           *)
(* ------------------------------------------------------------------ *)

(* The directory fsync that pins [compact]'s and
   [reset_to_snapshot_file]'s renames: without it, a power cut can
   resurrect the pre-rename checkpoint.  A failure raises, and the
   caller fail-stops as for a failed wal fsync; the [journal.dir_fsync]
   crash point fires first so the fault sweep can kill the process
   exactly here. *)
let fsync_dir dir =
  Fault.fire "journal.dir_fsync";
  Disk.fsync_path dir

let set_lag j = Ddf_obs.Metrics.set g_lag (float_of_int (j.j_seq - j.j_checkpoint))

let sync j =
  if not j.j_closed then begin
    check_writable j;
    set_lag j;
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

(* Replay wal.ddf, whose first frame is entry [base]+1, into [ctx],
   recording each frame in [index]; a frame at or below [checkpoint] is
   already in the checkpoint and is skipped by its seqno.  Returns
   (entries, torn-tail bytes dropped, end of the good prefix).  The
   file is cut durably at the first torn frame. *)
let replay_wal ctx index path ~base ~checkpoint =
  let entries = ref 0 in
  let read =
    read_wal path ~base (fun seq off payload ->
        if seq > checkpoint then begin
          replay_entry ctx payload;
          Ddf_obs.Metrics.incr m_replayed
        end;
        Cement.index_add index ~off payload;
        incr entries;
        true)
  in
  match read with
  | `End at -> (!entries, 0, at)
  | `Torn at ->
    let torn = (Unix.stat path).Unix.st_size - at in
    Ddf_obs.Metrics.incr m_torn;
    Disk.cut path at;
    (!entries, torn, at)

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
   replay does.  [cold_put_text] stops before the parse: the value's
   text as the put carries it, which a self-contained save copies. *)
let cold_put_text c store iid =
  match Cement.find_put c ~iid with
  | None -> None
  | Some payload -> (
    match Entry.decode payload with
    | Entry.Put { hash; text; _ } ->
      if hash <> Store.Snapshot.hash_of (Store.snapshot store) iid then
        journal_errorf "cemented instance %d: content hash mismatch" iid;
      Some text
    | Entry.Note _ | Entry.Record _ | Entry.Conflict _ | Entry.Resolve _ ->
      None)

let install_cold_loader c store =
  Store.set_cold_loader store (fun iid ->
      Option.map
        (fun text ->
          let hash = Store.Snapshot.hash_of (Store.snapshot store) iid in
          ignore (Entry.value ~iid ~hash text);
          text)
        (cold_put_text c store iid))

(* Evict resident payloads whose every owning instance can be cold-
   loaded back from cement.  Payloads are shared by content hash, so a
   hash is only droppable when ALL its owners' installing puts are
   cemented; one [Store.evict] per hash drops it for every owner.
   Returns the number of payloads evicted. *)
let evict_cold j =
  let store = j.j_ctx.Ddf_exec.Engine.store in
  let snap = Store.snapshot store in
  let cold = Hashtbl.create 256 in
  Cement.iter_puts j.j_cement (fun iid -> Hashtbl.replace cold iid ());
  let owners = Hashtbl.create 256 in
  (* hash -> (droppable so far, representative iid) *)
  List.iter
    (fun iid ->
      let h = Store.Snapshot.hash_of snap iid in
      let ok = Hashtbl.mem cold iid in
      match Hashtbl.find_opt owners h with
      | None -> Hashtbl.replace owners h (ok, iid)
      | Some (all_ok, rep) -> Hashtbl.replace owners h (all_ok && ok, rep))
    (Store.Snapshot.all_instances snap);
  let n = ref 0 in
  Hashtbl.iter
    (fun _h (all_ok, rep) ->
      if all_ok && Store.Snapshot.payload_resident snap rep
         && Store.evict store rep
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
  (* entries of another format are refused by name here, before the
     checkpoint's references are trusted: the newest cemented entry
     speaks for the segments, and wal replay for the wal *)
  (match Cement.read cement (Cement.last_seq cement) with
  | Some payload -> ignore (Entry.decode payload : Entry.t)
  | None -> ());
  let has_checkpoint = Sys.file_exists (snapshot_path dir) in
  let checkpoint, from, ctx =
    if has_checkpoint then
      let seq, from, session =
        try
          W.load_file ?registry
            ~cemented:(fun iid -> Cement.put_seq cement ~iid)
            schema (snapshot_path dir)
        with W.Persist_error m -> journal_errorf "snapshot: %s" m
      in
      (seq, from, Ddf_session.Session.context session)
    else (0, 1, Ddf_exec.Engine.create_context ?registry schema)
  in
  (* cement that does not start at the checkpoint's line is another
     line's: a cement restart or a resync stopped between its
     self-contained checkpoint's rename and the clear, finished here *)
  if has_checkpoint && Cement.last_seq cement <> 0
     && Cement.first_seq cement <> from
  then Cement.clear cement;
  install_cold_loader cement ctx.Ddf_exec.Engine.store;
  (* the frames sealed since the checkpoint: their puts load cold, the
     frame checksum, parse and content hash left to the cold loader *)
  let sealed = Cement.last_seq cement in
  if sealed > checkpoint then
    Cement.iter_range cement ~from:(checkpoint + 1) ~upto:sealed
      ~skip:(fun payload -> fst (Entry.classify payload) = 'p')
      (fun _ payload ->
        replay_entry ~cold:true ctx payload;
        Ddf_obs.Metrics.incr m_replayed);
  (* the wal follows the line's last sealed entry or, with no cement,
     the entry before the line's first *)
  let base = if sealed = 0 then from - 1 else max checkpoint sealed in
  let index = Cement.index () in
  let wal_existed = Sys.file_exists (wal_path dir) in
  let entries, torn, wal_end =
    replay_wal ctx index (wal_path dir) ~base ~checkpoint
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 (wal_path dir)
  in
  seek_out oc wal_end;
  (* a wal this open created (a fresh database, or a crash before a
     compaction's fresh wal) is durable before anything is appended *)
  if not wal_existed then Disk.fsync_path dir;
  let j =
    { j_dir = dir; j_ctx = ctx; j_registry = registry; j_oc = oc;
      j_index = index; j_entries = entries; j_base = base;
      j_checkpoint = checkpoint; j_seq = base + entries; j_truncated = torn;
      j_closed = false; j_failed = None; j_frame_obs = None; compact_every;
      j_sync_mode = sync_mode; j_pending = 0; j_cement = cement }
  in
  attach j;
  set_lag j;
  j

(* The live journal's wal frames with seqno > [after] (at least the
   wal's base), read back from the offset the index recorded for the
   first of them.  Callers must exclude writers, so the file ends
   exactly at the last complete frame: a torn frame here is
   corruption, not a crash tail. *)
let iter_wal j ~after f =
  flush j.j_oc;
  let k = max 0 (after - j.j_base) in
  if k < j.j_entries then
    match
      read_wal (wal_path j.j_dir) ~off:(Cement.index_offset j.j_index k)
        ~base:(j.j_base + k) f
    with
    | `End _ -> ()
    | `Torn at -> journal_errorf "wal torn mid-read at %d" at

(* Replace the checkpoint with [save ()], timed with the save.  The
   rename is pinned by the caller's directory fsync. *)
let write_checkpoint dir save =
  let t0 = Unix.gettimeofday () in
  let text = save () in
  Disk.replace (snapshot_path dir) (fun oc -> output_string oc text);
  Ddf_obs.Metrics.incr m_checkpoints;
  Ddf_obs.Metrics.observe h_checkpoint (Unix.gettimeofday () -. t0)

(* Seal the wal into cement and, when [checkpoint], write a fresh
   checkpoint over it.

   Order: wal fsync -> the wal renamed into cement as segment
   base+1..seq, its index written from the lines recorded at append,
   cement directory fsync (all in [Cement.seal]) -> checkpoint rename
   -> fresh wal -> one directory fsync, which pins the renames and the
   new wal's entry before anything is appended to it.  A seal alone
   skips the checkpoint.  The checkpoint names the seq it covers and
   references only puts the seal made durable before its rename, so it
   never has to read a payload, and no frame is read or written again.
   A crash at any point leaves either the old checkpoint (whose
   references are older frames, untouched) or the new one; open
   replays the sealed frames past the checkpoint's seq, then the wal.
   The [journal.compact] fault point fires after the seal, and with a
   checkpoint after its rename (only there when cement is restarted:
   its seal follows the rename).  A failure anywhere fail-stops the
   journal: the wal may already be a segment. *)
let compact_now ~checkpoint j =
  let c = j.j_cement in
  let sealed = j.j_entries > 0 in
  (* the wal is whole on disk before a checkpoint covers it: a cement
     restart writes its checkpoint before the seal *)
  if sealed then Disk.fsync j.j_oc;
  let seal () =
    if sealed then begin
      close_out j.j_oc;
      Cement.seal c ~first:(j.j_base + 1) j.j_index (wal_path j.j_dir)
    end
  in
  let session = Ddf_session.Session.of_context j.j_ctx in
  let restart = Cement.last_seq c <> 0 && Cement.last_seq c < j.j_base in
  (* where the checkpoint's cement starts, or will once the wal is sealed *)
  let from =
    if restart || Cement.first_seq c = 0 then j.j_base + 1
    else Cement.first_seq c
  in
  if restart then begin
    (* A cold store that stops short of the base (a torn segment
       dropped on open, or a directory copied from another line) cannot
       be extended contiguously: start it over, with the wal as its
       first segment.  The current checkpoint may reference frames the
       clear deletes, so it is first replaced by a self-contained one —
       every payload read back, and so made resident, while cement
       still holds it: the clear drops the frames a cold payload would
       load from — and that rename is pinned before anything is
       deleted.  Until the seal, open clears the old segments and skips
       the wal, numbered from [from], by seqno. *)
    write_checkpoint j.j_dir (fun () -> W.save ~seq:j.j_seq ~from session);
    fsync_dir j.j_dir;
    Cement.clear c;
    seal ()
  end
  else begin
    seal ();
    Fault.fire "journal.compact";
    if checkpoint then
      write_checkpoint j.j_dir (fun () ->
          W.save ~seq:j.j_seq ~from
            ~cemented:(fun iid -> Cement.put_seq c ~iid) session)
  end;
  if restart || checkpoint then begin
    Fault.fire "journal.compact";
    j.j_checkpoint <- j.j_seq
  end;
  if sealed then
    j.j_oc <-
      open_out_gen
        [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
        0o644 (wal_path j.j_dir);
  fsync_dir j.j_dir;
  j.j_index <- Cement.index ();
  j.j_entries <- 0;
  j.j_base <- j.j_seq;
  (* every journaled entry is sealed or folded into the checkpoint:
     this is a durability point even for entries not yet fsynced *)
  j.j_pending <- 0

let compact_with ~checkpoint j =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  check_writable j;
  Ddf_obs.Metrics.incr m_compactions;
  let t0 = Unix.gettimeofday () in
  (try compact_now ~checkpoint j with e -> fail_stop j e);
  Ddf_obs.Metrics.observe h_compact (Unix.gettimeofday () -. t0)

let compact j = compact_with ~checkpoint:true j

(* A checkpoint once the sealed tail is as long as the prefix it
   covers: they land at [compact_every]·2^k, so their bytes cost O(1)
   per entry amortised, and open replays at most half the history. *)
let maybe_compact j =
  if (not j.j_closed) && j.j_entries >= j.compact_every then begin
    compact_with ~checkpoint:(j.j_seq - j.j_checkpoint >= j.j_checkpoint) j;
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
   (the server reads the tail inside a group commit), so the file
   ends exactly at the last complete frame. *)
let entries_since j since =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  if since < j.j_base then Snapshot_needed
  else begin
    let out = ref [] in
    iter_wal j ~after:since (fun seq _ payload ->
        out := (seq, payload) :: !out;
        true);
    Frames (List.rev !out)
  end

(* Anti-entropy support: the digest a peer compares against, and exact
   frame extraction by seqno window.  Both read the wal back from disk
   (writers excluded, like [entries_since]); frames are hashed with the
   same md5 the frame header carries, so a digest mismatch means the
   histories genuinely diverge at that seqno. *)

let frame_digest payload = Digest.to_hex (Digest.string payload)

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
  else if limit = 0 then []
  else begin
    let out = ref [] in
    let taken = ref 0 in
    iter_wal j ~after (fun seq _ payload ->
        incr taken;
        out := (seq, frame_digest payload, payload) :: !out;
        !taken < limit);
    List.rev !out
  end

(* (seqno, md5) for every wal frame, ascending — entries base+1..seq. *)
let digest j =
  List.map
    (fun (seq, md5, _) -> (seq, md5))
    (frames j ~after:j.j_base ~limit:max_int)

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
    Disk.replace path (fun oc -> Printf.fprintf oc "W1 %s\n" id);
    Disk.fsync_path j.j_dir;
    id
  end

(* The full current state as a replication seed: (seqno, workspace
   save).  A cold payload is copied as its cemented put entry carries
   it: the seed neither parses it nor promotes it into memory.  Like
   [entries_since], call this with writers excluded. *)
let snapshot_state j =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  let cold_text = cold_put_text j.j_cement j.j_ctx.Ddf_exec.Engine.store in
  (j.j_seq, W.save ~seq:j.j_seq ~cold_text (Ddf_session.Session.of_context j.j_ctx))

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
  (try replay_entry j.j_ctx payload
   with e ->
     attach j;
     raise e);
  attach j;
  (match
     write_frame j payload;
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

let m_stream_resyncs = Ddf_obs.Metrics.counter "journal.snapshot_stream_resyncs"

(* Follower-side resync, the catch-up path when our seqno predates the
   primary's oldest wal entry: [path] holds a workspace save spooled to
   disk in bounded chunks (a streamed bootstrap), so the snapshot bytes
   never exist as one in-memory string here.  The file is parsed, its
   header's seq checked against the stream's, and fsynced FIRST — a
   malformed or mislabelled stream must not clobber the database.
   Then the wal is cut durably, so no frame of the old seqno line can
   replay past the new base; the spool is renamed into place (it is on
   the database's filesystem) and pinned before cement is cleared; only
   then is the in-memory context swapped in place, so sessions holding
   it observe the new state.  A failure from the cut on fail-stops the
   journal, as in [compact]: the disk may already hold part of the new
   line, and open finishes the clear. *)
let reset_to_snapshot_file j ~seq path =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  check_writable j;
  Ddf_obs.Metrics.incr m_resyncs;
  Ddf_obs.Metrics.incr m_stream_resyncs;
  let covers, from, session =
    try W.load_file ?registry:j.j_registry j.j_ctx.Ddf_exec.Engine.schema path
    with W.Persist_error m -> journal_errorf "replication snapshot: %s" m
  in
  if covers <> seq || from <> seq + 1 then
    journal_errorf ~code:`Conflict
      "replication snapshot: the stream names entry %d, the file covers %d \
       (its line from %d)"
      seq covers from;
  let fresh = Ddf_session.Session.context session in
  Disk.fsync_path path;
  detach j;
  (match
     flush j.j_oc;
     Disk.cut (wal_path j.j_dir) 0;
     seek_out j.j_oc 0;
     Sys.rename path (snapshot_path j.j_dir);
     (* the resync rebased the seqno line: the cemented history belongs
        to the pre-reset database and can never be extended
        contiguously.  The new checkpoint is self-contained, so
        clearing once its rename is pinned is safe. *)
     fsync_dir j.j_dir;
     Cement.clear j.j_cement;
     (* the resync's last durability point: the crash sweep's point
        after the clear *)
     fsync_dir j.j_dir
   with
  | () -> ()
  | exception e ->
    attach j;
    fail_stop j e);
  j.j_index <- Cement.index ();
  j.j_ctx.Ddf_exec.Engine.store <- fresh.Ddf_exec.Engine.store;
  j.j_ctx.Ddf_exec.Engine.history <- fresh.Ddf_exec.Engine.history;
  j.j_ctx.Ddf_exec.Engine.clock <- fresh.Ddf_exec.Engine.clock;
  j.j_entries <- 0;
  j.j_base <- seq;
  j.j_checkpoint <- seq;
  j.j_seq <- seq;
  j.j_pending <- 0;
  (* the fresh store needs the cold loader re-wired (it replaced the
     one the loader was installed on) *)
  install_cold_loader j.j_cement fresh.Ddf_exec.Engine.store;
  attach j
