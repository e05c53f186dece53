(** Tiered cold storage for cemented journal history.

    The journal's entries are immutable once written: frames below the
    compaction watermark (the checkpoint's seq) describe puts, annotations and
    flow records that can never change again.  [Cement] keeps that
    history in {e segments} under a [cemented/] directory, so restart
    replay, anti-entropy catch-up and cold version/trace queries below
    the watermark work without a full resync.  A segment holds a
    contiguous seqno window

    {v
      segment-<first>-<last>.ddf   J1 frames, nothing else: a sealed wal
      segment-<first>-<last>.idx   I1 header + fixed-width offset lines
    v}

    A segment {e is} the journal's wal file: a compaction fsyncs the
    wal and {!seal}s it, renaming it into the store, so each frame is
    written once, by the append that journaled it.  The frames use the
    wal's [J1 <len> <md5>] framing (one codec, below); the index maps a
    seqno to its byte offset in O(1), so lookups are positioned reads,
    not replay.  The journal builds a wal's index lines as it appends
    ({!index_add}).  A missing or inconsistent [.idx] is rebuilt from
    its segment on open.  Open also reads every index once into an
    in-memory put map (iid → seqno and offset of the put frame that
    installed it), which {!seal} extends and {!clear} empties, so put
    lookups never scan an index.  A segment of cement segment format 1
    (a [C1 <first> <last>] line before a copy of the frames) is refused
    at {!open_}.

    Crash safety: a sealed file is complete and fsynced before its
    rename, and the directory is fsynced after it; every fsync goes
    through {!Ddf_disk.Disk} and raises on failure.  A torn tail on the
    newest segment (external damage) is found on open, where its last
    indexed frame must be whole and end the file, and cut back in place
    to the last good frame by a full scan (an empty survivor is
    dropped).

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
  ?skip:(string -> bool) -> in_channel -> [ `End | `Frame of string | `Torn of int ]
(** Read one frame: [`Frame payload] once the payload matched its
    checksum, or at once when [skip payload]; [`End] cleanly at end of
    file; [`Torn at] when a short, malformed or checksum-failing frame
    starts at offset [at] (the end of the good prefix). *)

(** {1 Index of a file being appended} *)

type index
(** The index lines of a file of frames, one per frame in file order:
    what {!seal} writes as the segment's [.idx] and loads into the put
    map. *)

val index : unit -> index

val index_add : index -> off:int -> string -> unit
(** [index_add idx ~off payload] records the frame of [payload] written
    at byte offset [off]: its kind and id are read off the entry's
    head ([Entry.classify]). *)

val index_offset : index -> int -> int
(** The byte offset of the [k]-th recorded frame (from 0). *)

(** {1 Segments} *)

type t

val open_ : dir:string -> t
(** Open (creating the directory if needed) the cement store rooted at
    [dir].  Trusts a segment's valid index (the newest one's only when
    its last indexed frame is whole and ends the file), scans any other
    segment, validates contiguity, truncates a torn newest segment,
    rebuilds stale indexes and loads the put map.
    @raise Ddf_core.Error.Ddf_error on unrecoverable corruption (a
    seqno gap between surviving segments), or ([`Invalid]) on a
    segment of cement segment format 1. *)

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

val seal : t -> first:int -> index -> string -> unit
(** [seal t ~first idx path] cements the file at [path] — complete J1
    frames, already fsynced, one [idx] line per frame — as the segment
    [first .. first + n - 1] by renaming it into the store: no frame is
    read or written.  Writes the [.idx], extends the put map and fsyncs
    the store's directory, so the segment is durable on return.  A
    no-op when [idx] is empty.  Observes [cement.fold_seconds] and
    bumps [cement.segments]/[cement.bytes].
    @raise Ddf_core.Error.Ddf_error ([`Conflict]) unless [first] is
    [last_seq t + 1] on a non-empty store. *)

val read : t -> int -> string option
(** [read t seq] returns the cemented frame payload for [seq] via one
    index lookup and one positioned read, verifying the frame
    checksum; [None] when [seq] is outside the cemented window.
    Counts [cement.reads]. *)

val iter_range :
  ?skip:(string -> bool) -> t -> from:int -> upto:int -> (int -> string -> unit) -> unit
(** [iter_range t ~from ~upto f] calls [f seq payload] for every
    cemented seqno in [[from, upto]] (clamped to the cemented window),
    ascending — sequential reads, one index lookup per segment.  A
    frame [skip] answers [true] for is passed on unchecked: its
    checksum waits for a positioned read ({!find_put}). *)

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
(** Drop every segment, newest first — used when the journal's history
    is replaced wholesale (a snapshot resync rebases the seqno line, so
    the old cold history no longer belongs to this database).  A
    process that dies midway leaves the oldest segments, so the store
    still starts where it did. *)

val close : t -> unit
(** Release cached descriptors.  The [t] stays usable (descriptors
    reopen lazily); call it when discarding the store. *)
