(** Tiered cold storage for cemented journal history.

    The journal's entries are immutable once written: frames below the
    compaction watermark ([base.ddf]) describe puts, annotations and
    flow records that can never change again.  Before this subsystem
    they were folded into the snapshot and {e discarded} — restart
    replay, anti-entropy catch-up and cold version/trace queries below
    the watermark were impossible without a full resync.

    [Cement] keeps that history in {e segments}: append-only,
    checksummed, index-backed files under a [cemented/] directory.  A
    segment holds a contiguous seqno window

    {v
      segment-<first>-<last>.ddf   C1 <first> <last>\n + J1 frames
      segment-<first>-<last>.idx   I1 header + fixed-width offset lines
    v}

    The frames use the wal's [J1 <len> <md5>] framing (one codec,
    below), so a cemented frame is byte-identical to the wal frame it
    came from; the index
    maps a seqno to its byte offset in O(1) (one fixed-width line per
    entry), so lookups are served by pread-style positioned reads, not
    replay.  The index is derived data: a missing or inconsistent
    [.idx] is rebuilt from its segment on open.  Open also reads every
    index once into an in-memory put map (iid → seqno and offset of the
    put frame that installed it), which {!fold_framed} extends and {!clear}
    empties, so put lookups never scan an index.

    Crash safety: segments are written to a temp file, fsynced and
    renamed into place (the directory is fsynced after the rename); a
    torn tail on the newest segment — external truncation, a crash
    while the file system reordered writes — is detected on open by a
    full scan of that segment and truncated back to the last good
    frame (an empty survivor is dropped entirely).

    Thread safety: all operations on one [t] are serialised by an
    internal mutex; callers may read from any thread. *)

(** {1 J1 framing}

    The one frame codec of the journal's wal and of the segments:
    [J1 <payload-bytes> <md5-hex>\n<payload>\n]. *)

val frame_header : string -> string
(** The header line that frames a payload, without its newline. *)

val output_frame : out_channel -> string -> unit
(** Write a framed payload to the channel, piece by piece (the frame
    is never assembled in memory).  Does not flush. *)

val read_frame :
  in_channel -> [ `End | `Frame of string * string | `Torn of int ]
(** Read one frame: [`Frame (header, payload)], the header line
    without its newline, once the payload matched its checksum; [`End]
    cleanly at end of file; [`Torn at] when a short, malformed or
    checksum-failing frame starts at offset [at] (the end of the good
    prefix). *)

(** {1 Segments} *)

type t

val open_ : dir:string -> t
(** Open (creating the directory if needed) the cement store rooted at
    [dir].  Scans the newest segment file (and any segment whose index
    is stale), validates contiguity, truncates a torn newest segment,
    rebuilds stale indexes and loads the put map.
    @raise Ddf_core.Error.Ddf_error on unrecoverable corruption (a
    seqno gap between surviving segments). *)

val dir : t -> string

val first_seq : t -> int
(** Lowest cemented seqno; [0] when the store is empty. *)

val last_seq : t -> int
(** Highest cemented seqno; [0] when the store is empty. *)

val segment_count : t -> int

val total_bytes : t -> int
(** Bytes across all segment ([.ddf]) files. *)

val truncated_on_open : t -> int
(** Bytes of torn tail dropped by crash recovery during {!open_}. *)

val fold_framed : t -> first:int -> (int * string * string) list -> unit
(** [fold_framed t ~first frames] cements [frames] (ascending,
    contiguous [(seqno, header, payload)] starting at [first]) as one
    new segment.  Each header line is the one {!read_frame} verified
    (or {!frame_header} of the payload) and is written as it is, so no
    payload is hashed again.
    Frames with seqno <= {!last_seq} are skipped — refolding after a
    crash between the cement fold and the watermark write is
    idempotent — and the remainder must start at [last_seq t + 1].
    A no-op on an empty list.  Durable on return (file and directory
    fsync).  Observes [cement.fold_seconds] and bumps
    [cement.segments]/[cement.bytes].
    @raise Ddf_core.Error.Ddf_error on a seqno gap. *)

val read : t -> int -> string option
(** [read t seq] returns the cemented frame payload for [seq] via one
    index lookup and one positioned read, verifying the frame
    checksum; [None] when [seq] is outside the cemented window.
    Counts [cement.reads]. *)

val iter_range : t -> from:int -> upto:int -> (int -> string -> unit) -> unit
(** [iter_range t ~from ~upto f] calls [f seq payload] for every
    cemented seqno in [[from, upto]] (clamped to the cemented window),
    ascending — sequential reads, one index lookup per segment. *)

val find_put : t -> iid:int -> string option
(** The cemented [put] frame payload that installed instance [iid], if
    any — the store's cold-load path for evicted payloads.  One put-map
    lookup and one checksum-verified positioned read.
    @raise Ddf_core.Error.Ddf_error when the frame fails its
    checksum. *)

val put_seq : t -> iid:int -> int option
(** The seqno of the cemented [put] frame that installed [iid], if any
    (a put-map lookup, no I/O) — what a checkpoint references instead
    of the payload. *)

val iter_puts : t -> (int -> unit) -> unit
(** Iterate the iids of every cemented [put] frame, ascending (put-map
    walk, no I/O) — the eviction planner's view of what is
    reloadable. *)

val clear : t -> unit
(** Drop every segment — used when the journal's history is replaced
    wholesale (a snapshot resync rebases the seqno line, so the old
    cold history no longer belongs to this database). *)

val close : t -> unit
(** Release cached descriptors.  The [t] stays usable (descriptors
    reopen lazily); call it when discarding the store. *)
