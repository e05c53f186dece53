(** A durable write-ahead log for the design database.

    The paper's framework is a shared, persistent design database:
    many designers work against one store and history, and the
    derivation meta-data must survive across sessions.  [Journal]
    makes an {!Ddf_exec.Engine.context} durable: every [Store.put],
    annotation and [History.add] is appended to the log ([wal.ddf]) as
    one checksummed, length-prefixed frame holding a binary
    {!Ddf_entry.Entry} before the caller proceeds — buffered in the
    process until the next {!flush} hands it to the OS — and replaying
    snapshot + log reconstructs the context — same iids, rids,
    meta-data, payload hashes and logical clock.  A put entry carries
    the text the store keeps (a wire install's bytes, or the engine's
    print of a derived value); a database whose entries are of an
    older format is refused at {!open_} with an error naming it.

    Crash safety: frames are self-delimiting with an MD5 checksum, so
    a torn tail (power cut mid-append) is detected and truncated on
    open; everything up to the last complete frame replays.  Periodic
    {!maybe_compact} seals the log into the cement store ([cemented/])
    by renaming it and starts a fresh log; now and then it also writes
    a checkpoint ([snapshot.ddf]: meta-data, history, clock and flows,
    with each payload a reference to its cemented put frame). *)

(** Errors are {!Ddf_core.Error.Ddf_error}: corruption and ordering
    violations are [`Internal]/[`Conflict], operations on a closed or
    failed journal are [`Unavailable]. *)

type t

type sync_mode =
  | Always  (** [fsync] inside every append: each entry is on disk
                before the caller proceeds. *)
  | Group   (** an append only buffers its frame; {!flush} hands the
                buffered frames to the OS and {!sync} makes everything
                appended durable with one [fsync] — classic WAL group
                commit.  The default: callers choose the durability
                points. *)
  | Never   (** no [fsync] at all — for replay-only followers and
                benchmark scaffolding.  A clean close loses nothing; a
                machine crash may lose the tail. *)

val open_ :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?compact_every:int ->
  ?sync_mode:sync_mode ->
  dir:string -> Ddf_schema.Schema.t -> t
(** Open a database directory (created when missing): open the cement
    store, load [snapshot.ddf] if present — instances whose payload it
    references come back cold, filled from cement on first read — then
    replay the cemented frames past the seq its header names (the seals
    since the checkpoint, their puts cold in the same way) and the
    [wal.ddf] frames past it (truncating a torn tail), and attach write
    observers to the rebuilt context so subsequent mutations are
    journaled.  Cement that does not start where the checkpoint's line
    does (a cement restart or a resync stopped before its clear) is
    cleared.  [compact_every] (default 10_000) is the log-entry
    threshold {!maybe_compact} acts on.  [sync_mode] (default {!Group})
    sets when entries become durable.  The checkpoint's instance rows
    and record rows each build the store's and the history's state in
    one batch, and so does each run of the sealed tail's puts, whose
    values are not read.  The time the open took is the
    [journal.open_us] gauge.
    @raise Ddf_core.Error.Ddf_error on corruption before the tail (iid/rid or
    content-hash mismatches), when the checkpoint references a put
    the cement store does not hold (the message names the iid), or
    ([`Invalid]) when the wal or cement holds entries of format 1
    (s-expressions), cement holds a segment of cement segment format
    1, or the checkpoint is of checkpoint format 1 to 3. *)

val sync_mode : t -> sync_mode

val context : t -> Ddf_exec.Engine.context
(** The journaled context; mutate it only through the normal engine /
    store / history operations. *)

val dir : t -> string

val entries_since_snapshot : t -> int
(** Entries in the wal: those journaled since the last seal. *)

val truncated_on_open : t -> int
(** Bytes of torn tail dropped by crash recovery during {!open_}. *)

val failed : t -> string option
(** Fail-stop reason, if a write-path failure (fsync error, short
    write, injected fault) poisoned the journal.  A failed journal
    refuses every later mutation with [`Unavailable] so a bad frame
    can never end up buried mid-log — recovery truncates at the first
    torn frame, and anything after it would be lost even though it was
    acknowledged.  Cleared only by reopening. *)

val flush : t -> unit
(** Hand the OS every frame appended since the last flush — one
    [write(2)] while they fit the channel's 64 KiB buffer, counted in
    [journal.wal_writes] — and only then pass them, oldest first, to
    the frame observer.  Not a durability point: once flushed they
    survive the process's crash, but a machine crash may lose them
    until {!sync}.  The
    design server calls it when each write job ends; {!sync},
    {!compact}, {!close} and the wal readers ({!entries_since},
    {!frames}, {!digest}) flush first.  A write failure fail-stops the
    journal (see {!failed}). *)

val sync : t -> unit
(** A durability point: {!flush} and [fsync] the log, so everything
    journaled so far survives a machine crash.  In {!Group} mode this
    is the group commit — one [fsync] covers every entry appended
    since the previous durability point, and the batch size is
    recorded in the [journal.group_commit_batch] histogram.  In
    {!Never} mode it only flushes.  Skips the [fsync] when nothing is
    pending. *)

val compact : t -> unit
(** Seal the log into the cement store — fsync it and rename it into
    [cemented/] as the next segment, whose index comes from the lines
    recorded at append, so no frame is read or written again — then
    always write a fresh checkpoint (atomically, via rename), whose
    header names the seq it covers, and a fresh log; the wire [Compact]
    verb runs this.  The checkpoint references only puts the seal made
    durable before its rename, so compaction never reads or re-encodes
    a payload; the full history stays addressable by seqno.  The
    checkpoint rename and the fresh log are pinned by one directory
    fsync (crash point [journal.dir_fsync]; [journal.compact] fires
    after the seal and the checkpoint rename); the whole operation is timed
    into the [journal.compact_seconds] histogram, the checkpoint into
    [journal.checkpoint_seconds] (counted in [journal.checkpoints]).  A
    cement store that stops short of the base is restarted, behind a
    self-contained checkpoint, with the log as its first segment.  A
    failure fail-stops the journal (see {!failed}): the log may already
    be sealed, and a reopen recovers. *)

val maybe_compact : t -> bool
(** Seal the log when it has reached [compact_every] entries, returning
    whether it did: {!compact} less the checkpoint, added only once
    [seq] is at least twice the checkpoint's seq.  So
    checkpoints cost O(1) bytes per entry amortised, and open replays
    at most half the history ([journal.checkpoint_lag] entries). *)

val close : t -> unit
(** Detach the observers, {!sync} and close the log.  The context
    remains usable but further writes are no longer journaled. *)

(** {1 Replication (journal shipping)}

    Every journaled entry has a global sequence number: cement and the
    snapshot cover entries [1..base_seq] and the wal holds
    [base_seq+1..seq].  A primary streams frames tagged with
    their seqnos; a follower applies them through its own journal, so
    its wal is byte-for-byte the primary's log suffix. *)

val seq : t -> int
(** Sequence number of the last entry journaled (applied or appended). *)

val base_seq : t -> int
(** Sequence number of the entry before the wal's first: the larger of
    the checkpoint's seq and cement's last, or where the line starts. *)

val set_frame_observer : t -> (int -> string -> unit) -> unit
(** Install the single frame observer, called with [(seqno, payload)]
    for each entry once the {!flush} (or {!sync}) that wrote it has
    handed it to the OS — in [Always] mode once it is on disk — so a
    follower never holds a frame the local wal lacks: the replication
    fan-out point.  Called from whichever thread flushes. *)

type tail =
  | Frames of (int * string) list  (** [(seqno, payload)], ascending *)
  | Snapshot_needed
      (** the requested seqno predates the snapshot base: the follower
          must resync from a fresh snapshot *)

val entries_since : t -> int -> tail
(** Entries with seqno greater than the argument, read back from the
    on-disk wal.  Call with writers excluded (the design server calls
    it inside a group commit, one at a time). *)

val snapshot_state : t -> int * string
(** The full current state as a replication seed or export: [(seq,
    workspace save)], self-contained (every payload inline, cold ones
    read back from cement).  Call with writers excluded. *)

(** {1 Anti-entropy sync support}

    {!Ddf_sync} reconciles two divergent journals pairwise: each side
    publishes {!digest} (seqno → frame md5 over its wal), the common
    prefix is located by comparing digests, and exactly the missing
    frames are fetched with {!frames} and re-executed remotely.  Like
    the replication readers, call these with writers excluded. *)

val digest : t -> (int * string) list
(** [(seqno, md5)] per wal frame, ascending — entries
    [base_seq+1 .. seq].  The md5 is the frame-header checksum, so
    equal digests mean byte-identical entries. *)

val frames : t -> after:int -> limit:int -> (int * string * string) list
(** At most [limit] frames with seqno > [after], as
    [(seqno, md5, payload)] ascending.  Frames below [base_seq] are
    served from the cement store when it covers them (positioned
    reads), transparently continuing into the wal.
    @raise Ddf_core.Error.Ddf_error ([`Conflict]) when [after] predates both the
    cemented window and [base_seq]: those frames are gone. *)

val frame_digest : string -> string
(** The md5 hex a frame header (and {!digest}) carries for a payload. *)

val wsid : t -> string
(** This database directory's stable workspace identity, minted on
    first use and persisted in [wsid.ddf].  Clones of a directory must
    remove that file (like a machine-id) to sync as their own peer. *)

val apply : t -> seq:int -> string -> unit
(** Follower-side: apply one replicated frame — replay the payload into
    the context and append the identical bytes to the local wal.
    @raise Ddf_core.Error.Ddf_error on a sequence gap ([seq] must be [seq t + 1]),
    content-hash mismatch or out-of-order ids. *)

val reset_to_snapshot_file : t -> seq:int -> string -> unit
(** Follower-side resync: replace the whole database (disk and the
    live context, in place) with a primary snapshot spooled to the
    given file path in bounded chunks (a streamed bootstrap), so the
    state never exists as one in-memory string.  The seq comes from
    the file's header; [seq] is what the stream announced, checked
    against it once.  Clears the cement store — its history belongs to
    the pre-reset seqno line.  The file must be on the database's
    filesystem.  It is parsed first — a malformed or mislabelled stream
    leaves the database untouched — then fsynced, the wal cut durably,
    the file renamed into place and pinned, and cement cleared
    ([journal.dir_fsync] fires before each of the two directory
    fsyncs).  A failure from the wal cut on fail-stops the journal
    ({!failed}), as in {!compact}: the disk may hold part of the new
    line, which reopening recovers.
    Counts [journal.snapshot_stream_resyncs] on top of
    [journal.snapshot_resyncs].
    @raise Ddf_core.Error.Ddf_error when the file does not parse, or
    ([`Conflict]) when its header names another seq than [seq]. *)

val snapshot_file : t -> string
(** Path of [snapshot.ddf] in this database directory — the
    checkpoint, which references cemented payloads and so only loads
    beside this database's cement store.  Exists whenever
    [base_seq t > 0]. *)

(** {1:cement Tiered cold storage}

    {!compact} seals the wal into an append-only, indexed cold store
    under [cemented/] (see
    {!Ddf_cement.Cement}).  The full journaled history 1..seq then
    stays addressable: seqnos at or below [base_seq] resolve by
    positioned reads against cement, seqnos above it live in the wal.
    The store's heavy payloads can be evicted from memory and reloaded
    on demand from their cemented put frames; after a restart every
    payload the checkpoint references starts out cold. *)

val cement_stats : t -> (int * int * int * int) option
(** [(segments, bytes, first_seq, last_seq)] of the cement store, or
    [None] when nothing has been cemented. *)

val cold_frame : t -> int -> string option
(** The cemented frame payload for a seqno — one index lookup and one
    checksum-verified positioned read; [None] outside the cemented
    window. *)

val evict_cold : t -> int
(** Evict resident payloads whose every owning instance can be
    reloaded from cement (payloads are shared by content hash, so a
    payload only leaves memory when all its owners' puts are
    cemented).  Instance meta-data always stays resident.  Returns the
    number of payloads evicted; later reads reload and re-promote them
    transparently ([store.cold_loads]). *)
