(** The design-history database.

    Each task invocation leaves one record: the goal entity, the tool
    instance used, the input instances per role, and every co-produced
    output.  This is the "small amount of meta-data" from which the
    paper derives everything else: backward chaining reconstructs how
    an object was made (Fig. 10), forward chaining finds what depends
    on it, a flow trace — the same form as a task graph — subsumes a
    version tree (Fig. 11), and staleness falls out of version
    comparison.

    {b MVCC:} like {!Store}, the hot state is one immutable record
    behind an [Atomic.t].  {!snapshot} captures it lock-free; all the
    reads below exist in two forms — live wrappers on {!t} (a fresh
    capture per call) and the {!Snapshot} module for pinned views.
    Store-joined queries (traces, templates) pair a history snapshot
    with a {!Store.Snapshot.t} so both sides are frozen together.

    Failures raise {!Ddf_core.Error.Ddf_error} ([`Not_found] for
    missing records/conflicts, [`Conflict] for duplicate producers and
    contradictory resolutions, [`Invalid] otherwise). *)

open Ddf_schema
open Ddf_store

type record = {
  rid : int;
  task_entity : string;                (** goal entity of the task *)
  tool : Store.iid option;             (** [None] for compositions *)
  inputs : (string * Store.iid) list;  (** role -> instance *)
  outputs : (string * Store.iid) list; (** entity -> instance *)
  at : int;                            (** logical execution time *)
}

type t

type snapshot
(** An immutable view of the history at one commit point; O(1) and
    lock-free to capture, repeatable to read. *)

val create : unit -> t

val snapshot : t -> snapshot
(** Capture the latest committed state: one atomic load. *)

val size : t -> int

val add :
  t -> 'a Store.t -> Schema.t -> task_entity:string ->
  tool:Store.iid option -> inputs:(string * Store.iid) list ->
  outputs:(string * Store.iid) list -> at:int -> record
(** Append a record.  The store and schema classify its version edges
    (see Versioning below): they must be the ones the record's
    instances live in and are typed by.
    @raise Ddf_core.Error.Ddf_error ([`Conflict]) when an output
    already has a producing record (derivations uniquely identify
    design objects), [`Invalid] when outputs are empty. *)

val find : t -> int -> record
val records : t -> record list

val tick : t -> int
(** The history's monotonic record counter: the rid the next {!add}
    will assign (restorable like {!Store.tick}). *)

val restore_tick : t -> int -> unit
(** @raise Ddf_core.Error.Ddf_error when moving the counter
    backwards. *)

val set_observer : t -> (record -> unit) -> unit
(** Install the single append observer, called synchronously after a
    record commits.  The write-ahead journal subscribes here. *)

val clear_observer : t -> unit

(** {1 Sync conflicts (alternative-version surfacing)}

    When anti-entropy sync ({!Ddf_sync}) applies a remote journal
    suffix and finds that both workspaces derived a version of the
    same design object, the remote derivation is kept as a sibling in
    the version tree — Fig. 11 already represents alternatives — and
    the branch point is registered here as a first-class conflict:
    queryable, resolvable by picking a winner, never silently
    overwritten.  Conflict values are immutable; {!resolve_conflict}
    replaces the record, so a value read through a snapshot is never
    torn by a concurrent resolution. *)

type conflict = {
  cid : int;
  c_base : Store.iid;      (** the shared version both sides edited *)
  c_ours : Store.iid;      (** the locally derived alternative *)
  c_theirs : Store.iid;    (** the remotely derived alternative *)
  c_origin : string;       (** workspace id the remote branch came from *)
  c_at : int;              (** logical time the conflict was detected *)
  c_winner : Store.iid option;
}

type conflict_event = Conflict_added of conflict | Conflict_resolved of conflict

val add_conflict :
  t -> base:Store.iid -> ours:Store.iid -> theirs:Store.iid ->
  origin:string -> at:int -> conflict

val find_conflict : t -> int -> conflict
(** @raise Ddf_core.Error.Ddf_error on an unknown id. *)

val find_conflict_pair : t -> Store.iid -> Store.iid -> conflict option
(** The conflict whose \{ours, theirs\} equals the unordered pair, if
    any — the dedup key: both peers record the same divergence with
    the orientation swapped. *)

val conflicts : t -> conflict list
(** Unresolved conflicts, oldest first. *)

val all_conflicts : t -> conflict list

val resolve_conflict : t -> int -> winner:Store.iid -> conflict
(** Pick a winner (one of base/ours/theirs), returning the updated
    conflict.  Re-resolving with the same winner is a no-op (synced
    resolutions re-apply); a different winner raises.
    @raise Ddf_core.Error.Ddf_error on an unknown id, a winner outside
    the conflict, or a contradictory re-resolution. *)

val conflict_tick : t -> int
(** The cid the next {!add_conflict} will assign (dense, like record
    ids — journal replay asserts it). *)

val set_conflict_observer : t -> (conflict_event -> unit) -> unit
(** Install the single conflict observer (the journal subscribes here,
    like {!set_observer} for records).  [Conflict_resolved] carries the
    {e updated} record (winner set). *)

val clear_conflict_observer : t -> unit

(** {1 Chaining (Fig. 10)} *)

val derivation_of : t -> Store.iid -> record option
(** The record that created an instance; [None] for sources installed
    directly by the designer. *)

val uses_of : t -> Store.iid -> record list
(** Records consuming the instance (as input or as tool). *)

val backward_closure : t -> Store.iid -> record list
(** The complete derivation history, nearest record first. *)

val forward_closure : t -> Store.iid -> record list
(** Every record transitively depending on the instance. *)

val derived_instances : t -> Store.iid -> Store.iid list
val ancestor_instances : t -> Store.iid -> Store.iid list

(** {1 Flow traces (Fig. 11(b))} *)

val trace :
  t -> 'a Store.t -> Schema.t -> Store.iid ->
  Ddf_graph.Task_graph.t * int * (int * Store.iid) list
(** The derivation of an instance as a task graph plus its instance
    binding: [(graph, root node, node -> instance)].  The same form is
    used for queries and for re-execution. *)

val trace_text : t -> 'a Store.t -> Schema.t -> Store.iid -> string
(** [Task_graph.to_ascii] of the {!trace} graph followed by the line
    ["(N instances in the derivation)"], rendered in one walk over the
    records without assembling the graph.  Every check the graph's
    construction applies is applied, and a history {!trace} rejects
    fails with the same exception. *)

(** {1 Query by template (section 4.2)} *)

val query_template :
  t -> 'a Store.t -> Ddf_graph.Task_graph.t -> bound:(int * Store.iid) list ->
  (int * Store.iid) list list
(** All bindings of the template's nodes to instances consistent with
    the recorded history; [bound] pins some nodes.  Result capped at
    1000 bindings. *)

(** {1 Versioning (Fig. 11)}

    A record is an editing task when one of its inputs shares an
    output's root entity type; that input is the output's version
    parent.  {!add} files every such edge in a version index that is
    part of the history state: parent and children per instance, and
    per version tree its members ordered by (creation time, iid).  So
    every query below is O(log n + answer) on the live history and on
    any pinned snapshot alike, and needs no store or schema. *)

val version_parent : t -> Store.iid -> Store.iid option
(** The edit predecessor: the input of the producing record whose
    entity shares the instance's root type. *)

val version_children : t -> Store.iid -> Store.iid list
(** Direct edit successors, ascending — more than one means
    alternative versions branch here (deliberate alternatives, or a
    sync merge of divergent workspaces). *)

type version_tree = {
  v_iid : Store.iid;
  v_children : version_tree list;
}

val version_tree : t -> Store.iid -> version_tree
val version_tree_size : version_tree -> int

(** [versions], [latest_version] and [out_of_date] read nothing from
    their store and schema arguments; the arguments stay because the
    benchmark's in-process replay ([perfbench/replay.ml]) calls these
    three with them. *)

val versions : t -> 'a Store.t -> Schema.t -> Store.iid -> Store.iid list
(** Every version in the instance's tree, ascending by iid. *)

val latest_version : t -> 'a Store.t -> Schema.t -> Store.iid -> Store.iid
(** The newest version by creation time (ties go to the higher iid);
    the instance itself when it has no versions. *)

(** {1 Consistency} *)

val out_of_date :
  t -> 'a Store.t -> Schema.t -> Store.iid ->
  (string * Store.iid * Store.iid list) list
(** Inputs of the derivation that have versions created after it:
    [(role, input, newer versions)]. *)

val is_up_to_date : t -> Store.iid -> bool

(** {1 Snapshot reads}

    The read API above, against one frozen history view.  Store-joined
    queries (traces, templates) take the {!Store.Snapshot.t} to read
    instance entities from — pin both sides together (the server's
    published view does) for a fully repeatable query. *)

module Snapshot : sig
  type t = snapshot

  val size : t -> int
  val tick : t -> int
  val conflict_tick : t -> int
  val find : t -> int -> record
  val records : t -> record list
  val find_conflict : t -> int -> conflict
  val find_conflict_pair : t -> Store.iid -> Store.iid -> conflict option
  val all_conflicts : t -> conflict list
  val conflicts : t -> conflict list
  val derivation_of : t -> Store.iid -> record option
  val uses_of : t -> Store.iid -> record list
  val backward_closure : t -> Store.iid -> record list
  val forward_closure : t -> Store.iid -> record list
  val derived_instances : t -> Store.iid -> Store.iid list
  val ancestor_instances : t -> Store.iid -> Store.iid list

  val trace :
    t -> 'a Store.Snapshot.t -> Schema.t -> Store.iid ->
    Ddf_graph.Task_graph.t * int * (int * Store.iid) list

  val trace_text : t -> 'a Store.Snapshot.t -> Schema.t -> Store.iid -> string

  val query_template :
    t -> 'a Store.Snapshot.t -> Ddf_graph.Task_graph.t ->
    bound:(int * Store.iid) list -> (int * Store.iid) list list

  val version_parent : t -> Store.iid -> Store.iid option
  val version_children : t -> Store.iid -> Store.iid list
  val version_tree : t -> Store.iid -> version_tree
  val versions : t -> Store.iid -> Store.iid list
  val latest_version : t -> Store.iid -> Store.iid
  val out_of_date : t -> Store.iid -> (string * Store.iid * Store.iid list) list
  val is_up_to_date : t -> Store.iid -> bool
end

val pp_record : Format.formatter -> record -> unit
val pp : Format.formatter -> t -> unit
