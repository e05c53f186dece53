(** The design-object store.

    Every design object is an {e instance}: per-instance meta-data
    (user, logical timestamp, name, comment, keywords — the browser
    columns of Fig. 9) plus a reference to content-addressed physical
    data.  As the paper's footnote 5 notes, several instances
    (different versions of a design) may share one physical datum;
    here sharing falls out of content addressing.  The store is
    polymorphic in the payload so the framework layers stay independent
    of the EDA substrate.

    {b MVCC:} the store's hot state is one immutable record behind an
    [Atomic.t].  {!snapshot} is an O(1), lock-free capture of it that
    stays valid forever, and every read is served from one
    ({!Snapshot}): the live handle keeps only its mutations, the cold
    loader and the observers.  Mutations build a new state record and
    publish it with a compare-and-set, so a snapshot pinned on one
    domain is never torn by a writer on another.  A snapshot taken
    before a write does not see it: write-path code takes a fresh one
    after its own mutations.  Installs are batches of rows ({!put} is a
    batch of one, {!put_rows} many), each published as one state. *)

type iid = int
(** Instance identifier, unique within one store. *)

type meta = {
  user : string;
  created_at : int;         (** logical-clock timestamp *)
  label : string;           (** designer-facing name *)
  comment : string;
  keywords : string list;
}

type 'a instance = private {
  iid : iid;
  entity : string;          (** schema entity the instance belongs to *)
  data_hash : string;
  meta : meta;
}

type 'a t
(** The live store handle: an atomic reference to the latest committed
    state plus the observer / cold-loader attachment points.  Store
    failures raise {!Ddf_core.Error.Ddf_error} with a typed
    {!Ddf_core.Error.t} ([`Not_found] for missing instances,
    [`Invalid] otherwise). *)

type 'a snapshot
(** An immutable view of the store at one commit point.  Capturing one
    is O(1) and lock-free; every read through it is repeatable — later
    writes to the live store are invisible. *)

val create : unit -> 'a t

val snapshot : 'a t -> 'a snapshot
(** Capture the latest committed state: one atomic load. *)

val meta :
  ?user:string -> ?label:string -> ?comment:string -> ?keywords:string list ->
  created_at:int -> unit -> meta

val put : 'a t -> entity:string -> hash:string -> meta:meta -> 'a -> iid
(** Install an instance; the payload is stored once per distinct hash
    and handed on to the write observer untouched.  The design engine's
    payload is a value's flat text, the bytes its journal entry carries. *)

val annotate :
  'a t -> iid -> ?label:string -> ?comment:string -> ?keywords:string list ->
  unit -> unit
(** Update the designer-facing annotation of an instance (section 4.1:
    naming and documenting design steps). *)

(** {1 Tiered storage (the cement store's attachment point)}

    Instance meta-data always stays resident — only the physical
    payloads (the heavy part) tier out.  The journal wires a cold
    loader backed by cemented [put] frames, then {!evict} drops
    resident payloads whose every owning instance is reloadable. *)

val set_cold_loader : 'a t -> (iid -> 'a option) -> unit
(** Install the fall-through used by {!Snapshot.payload} on a non-resident
    datum.  The loader receives the iid (cold storage is keyed by the
    installing put, not by hash) and returns the payload or [None]. *)

val evict : 'a t -> iid -> bool
(** Drop the resident payload behind [iid] (shared-hash siblings lose
    residency too — callers must check every owner is cold-loadable
    first).  Returns [false] when already evicted or the instance is
    unknown.  Counts [store.evictions].  The hash stays known: it
    still counts for dedup and {!Snapshot.physical_count}. *)

type 'a row = {
  row_entity : string;
  row_hash : string;
  row_meta : meta;
  row_payload : 'a option;
      (** [None]: the payload lives only in cold storage — a checkpoint
          that references a cemented put instead of carrying the value,
          or a cemented put replayed without it *)
}

val put_rows : 'a t -> 'a row list -> unit
(** Install the rows in order, at iids {!Snapshot.tick} onwards, each as
    {!put} would (dedup and {!Snapshot.physical_count} alike), and
    publish them as one state: each column and index is built once for
    the lot, and a reader sees all of the rows or none.  The write
    observer sees each row that carries its payload; a row without one
    makes nothing resident, and its first {!Snapshot.payload} read goes
    through the cold loader. *)

(** {1 Write observation (the journal's attachment point)} *)

type 'a event =
  | Put of 'a instance * 'a
      (** a new instance was installed, with the payload {!put} got *)
  | Annotated of 'a instance      (** an instance's meta changed *)

val set_observer : 'a t -> ('a event -> unit) -> unit
(** Install the single write observer, called synchronously after each
    mutation commits.  The write-ahead journal subscribes here. *)

val clear_observer : 'a t -> unit

(** {1 Browser filters (the Fig. 9 instance browser)} *)

type filter = {
  f_entities : string list option;  (** accepted entities; [None] = all *)
  f_user : string option;
  f_from : int option;              (** inclusive timestamp bounds *)
  f_to : int option;
  f_keywords : string list;         (** all must be present *)
  f_text : string option;           (** substring of label or comment *)
}

val any_filter : filter

(** {1 Reads}

    Every read takes a snapshot: pin once, read many times, never take
    a lock.  The server's domain-pool read executor reads through the
    snapshot of its published view. *)

module Snapshot : sig
  type 'a t = 'a snapshot

  val tick : 'a t -> int
  (** The iid the next {!put} after capture assigns: iids [>= tick]
      are not in this snapshot.  Iids are dense from 1, so this is
      always {!instance_count} + 1. *)

  val find : 'a t -> iid -> 'a instance
  (** @raise Ddf_core.Error.Ddf_error on a missing instance. *)

  val find_opt : 'a t -> iid -> 'a instance option
  val mem : 'a t -> iid -> bool

  val payload : 'a t -> iid -> 'a
  (** The physical datum behind an instance (the design engine decodes
      its text through a bounded cache, {!Ddf_exec.Engine.decode}).
      A resident payload is one or two column reads (the instance's
      datum, or the datum it shares); an evicted payload falls
      through to the cold loader (see {!set_cold_loader}), is
      made resident again in the {e live} store
      (promote-on-read, never into the snapshot: re-reading the same
      evicted payload through one snapshot hits the loader again) and
      counted in [store.cold_loads].
      @raise Ddf_core.Error.Ddf_error ([`Not_found]) when the payload is
      neither resident nor reloadable. *)

  val payload_resident : 'a t -> iid -> bool
  (** Whether {!payload} would be served from the store (no cold
      load).  @raise Ddf_core.Error.Ddf_error on a missing
      instance. *)

  val entity_of : 'a t -> iid -> string
  val meta_of : 'a t -> iid -> meta
  val hash_of : 'a t -> iid -> string

  val instance_count : 'a t -> int
  (** O(1): the length of the store's instance column. *)

  val physical_count : 'a t -> int
  (** Distinct payloads, resident or cold: [instance_count -
      physical_count] is the storage saved by sharing. *)

  val instances_of_entity : 'a t -> string -> iid list
  (** In installation order. *)

  val all_instances : 'a t -> iid list
  val matches : 'a t -> filter -> iid -> bool

  val browse : 'a t -> filter -> iid list
  (** The instances that pass the filter, in ascending iid order.  The
      cost depends on the instances tested against the whole filter:
      - with a keyword and an entity filter: the instances carrying the
        filter's first keyword (one iid lookup each) or those of the
        listed entities, whichever are fewer (each entity's count is
        its bucket's length);
      - with a keyword alone: the instances carrying its first keyword;
      - with an entity filter alone: the listed entities' instances;
      - otherwise: every instance.
      Only the last grows with the rest of the store.  User, date and
      text tests never narrow the instances tested. *)

  val check_keyword_index : 'a t -> unit
  (** Checks the keyword index {!browse} reads against the instances:
      each keyword files exactly the iids of the instances carrying it,
      and its count is their number.  Raises [Failure] naming the first
      mismatch.  A full scan, for tests. *)
end

val pp : Format.formatter -> 'a t -> unit
