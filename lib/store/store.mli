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
    stays valid forever; all reads are served from a snapshot
    ({!Snapshot}), and the live-store read functions below are thin
    wrappers that capture a fresh snapshot per call.  Mutations build a
    new state record and publish it with a compare-and-set, so a
    snapshot pinned on one domain is never torn by a writer on
    another. *)

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
(** Install an instance; the payload is stored once per distinct hash. *)

val find : 'a t -> iid -> 'a instance
(** @raise Ddf_core.Error.Ddf_error on a missing instance. *)

val find_opt : 'a t -> iid -> 'a instance option
val mem : 'a t -> iid -> bool

val payload : 'a t -> iid -> 'a
(** The physical datum behind an instance.  Resident payloads are one
    map lookup; an evicted payload falls through to the cold loader
    (see {!set_cold_loader}), is re-installed in the resident table
    (promote-on-read) and counted in [store.cold_loads].
    @raise Ddf_core.Error.Ddf_error ([`Not_found]) when the payload is
    neither resident nor reloadable. *)

val entity_of : 'a t -> iid -> string
val meta_of : 'a t -> iid -> meta
val hash_of : 'a t -> iid -> string

val annotate :
  'a t -> iid -> ?label:string -> ?comment:string -> ?keywords:string list ->
  unit -> unit
(** Update the designer-facing annotation of an instance (section 4.1:
    naming and documenting design steps). *)

val tick : 'a t -> int
(** The store's monotonic instance counter: the iid the next {!put}
    will assign.  Exposed so journal replay and the design server can
    restore the clock instead of re-deriving it from the contents. *)

val restore_tick : 'a t -> int -> unit
(** Reset the counter after a replay.
    @raise Ddf_core.Error.Ddf_error when moving the counter backwards
    (iids must stay unique). *)

(** {1 Tiered storage (the cement store's attachment point)}

    Instance meta-data always stays resident — only the physical
    payloads (the heavy part) tier out.  The journal wires a cold
    loader backed by cemented [put] frames, then {!evict} drops
    resident payloads whose every owning instance is reloadable. *)

val set_cold_loader : 'a t -> (iid -> 'a option) -> unit
(** Install the fall-through used by {!payload} on a non-resident
    datum.  The loader receives the iid (cold storage is keyed by the
    installing put, not by hash) and returns the payload or [None]. *)

val clear_cold_loader : 'a t -> unit

val payload_resident : 'a t -> iid -> bool
(** Whether {!payload} would be served from the resident table (no
    cold load).  @raise Ddf_core.Error.Ddf_error on a missing
    instance. *)

val evict : 'a t -> iid -> bool
(** Drop the resident payload behind [iid] (shared-hash siblings lose
    residency too — callers must check every owner is cold-loadable
    first).  Returns [false] when already evicted or the instance is
    unknown.  Counts [store.evictions].  The hash stays known: it
    still counts for dedup and {!physical_count}. *)

val put_cold : 'a t -> entity:string -> hash:string -> meta:meta -> iid
(** Restore an instance whose payload lives only in cold storage — a
    checkpoint that references a cemented put instead of carrying the
    value.  Like {!put} (same iid allocation, dedup and
    {!physical_count}), but nothing becomes resident and the write
    observer is not called: the first {!payload} read goes through the
    cold loader. *)

(** {1 Write observation (the journal's attachment point)} *)

type 'a event =
  | Put of 'a instance * 'a       (** a new instance was installed *)
  | Annotated of 'a instance      (** an instance's meta changed *)

val set_observer : 'a t -> ('a event -> unit) -> unit
(** Install the single write observer, called synchronously after each
    mutation commits.  The write-ahead journal subscribes here. *)

val clear_observer : 'a t -> unit

val instance_count : 'a t -> int

val physical_count : 'a t -> int
(** Distinct payloads, resident or cold: [instance_count -
    physical_count] is the storage saved by sharing. *)

val instances_of_entity : 'a t -> string -> iid list
(** In installation order. *)

val all_instances : 'a t -> iid list

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
val matches : 'a t -> filter -> iid -> bool
val browse : 'a t -> filter -> iid list

(** {1 Snapshot reads}

    The same read API as the live wrappers above, against one frozen
    view.  This is what the server's domain-pool read executor and
    {!Parallel}'s flow branches use: pin once, read many times, never
    take a lock. *)

module Snapshot : sig
  type 'a store := 'a t
  type 'a t = 'a snapshot

  val source : 'a t -> 'a store
  (** The live handle this snapshot was captured from. *)

  val tick : 'a t -> int
  (** The instance counter at capture time: iids [>= tick] are not in
      this snapshot. *)

  val find : 'a t -> iid -> 'a instance
  val find_opt : 'a t -> iid -> 'a instance option
  val mem : 'a t -> iid -> bool

  val payload : 'a t -> iid -> 'a
  (** Cold loads promote into the {e live} store, never into the
      snapshot: re-reading the same evicted payload through one
      snapshot hits the loader again. *)

  val payload_resident : 'a t -> iid -> bool
  val entity_of : 'a t -> iid -> string
  val meta_of : 'a t -> iid -> meta
  val hash_of : 'a t -> iid -> string
  val instance_count : 'a t -> int
  val physical_count : 'a t -> int
  val instances_of_entity : 'a t -> string -> iid list
  val all_instances : 'a t -> iid list
  val matches : 'a t -> filter -> iid -> bool
  val browse : 'a t -> filter -> iid list
end

val pp_instance : Format.formatter -> 'a instance -> unit
val pp : Format.formatter -> 'a t -> unit
