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
    behind an [Atomic.t].  {!snapshot} captures it lock-free, and every
    read goes through one ({!Snapshot}): the live handle keeps only its
    mutations and observers.  Store-joined queries (traces, templates)
    pair a history snapshot with a {!Store.Snapshot.t} so both sides
    are frozen together.

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

val add :
  t -> 'a Store.Snapshot.t -> Schema.t -> task_entity:string ->
  tool:Store.iid option -> inputs:(string * Store.iid) list ->
  outputs:(string * Store.iid) list -> at:int -> record
(** Append a record.  The store snapshot and schema must be the ones
    the record's instances live in and are typed by (a snapshot taken
    after the instances were put): they check the record and classify
    its version edges (see Versioning below).  The check is the one
    place a history is validated; reads trust it.  For each output a
    trace walks below (see {!Snapshot.trace}), the record fills the
    construction rule as {!Ddf_graph.Task_graph.connect} would: roles
    declared, the tool fitting the functional role, inputs subtypes of
    their roles' targets, no role twice.  And its tool and inputs must
    not depend on an output (no cycle).  A refused record raises the
    exception its graph would ([Task_graph.Graph_error], with the
    output's iid as the node; [Task_graph.Needs_specialization];
    [Schema.Schema_error]) and leaves the history as it was.
    @raise Ddf_core.Error.Ddf_error ([`Conflict]) when an output
    already has a producing record (derivations uniquely identify
    design objects), [`Not_found] when the store has no instance the
    record names, [`Invalid] when outputs are empty. *)

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

val resolve_conflict : t -> int -> winner:Store.iid -> conflict
(** Pick a winner (one of base/ours/theirs), returning the updated
    conflict.  Re-resolving with the same winner is a no-op (synced
    resolutions re-apply); a different winner raises.
    @raise Ddf_core.Error.Ddf_error on an unknown id, a winner outside
    the conflict, or a contradictory re-resolution. *)

val set_conflict_observer : t -> (conflict_event -> unit) -> unit
(** Install the single conflict observer (the journal subscribes here,
    like {!set_observer} for records).  [Conflict_resolved] carries the
    {e updated} record (winner set). *)

val clear_conflict_observer : t -> unit

type version_tree = {
  v_iid : Store.iid;
  v_children : version_tree list;
}

val version_tree_size : version_tree -> int

(** {1 Reads}

    Every read takes a snapshot (or a pinned {!Ddf_exec.Engine.view}'s
    history side).  Store-joined queries (traces, templates) take the
    {!Store.Snapshot.t} to read instance entities from: pin both sides
    together (the server's published view does) for a fully repeatable
    query. *)

module Snapshot : sig
  type t = snapshot

  val size : t -> int
  (** O(1): the length of the history's record column. *)

  val tick : t -> int
  (** The rid the next {!add} after capture assigns.  Rids are dense
      from 1, so this is always {!size} + 1. *)

  val find : t -> int -> record
  val records : t -> record list

  (** {2 Sync conflicts} *)

  val find_conflict : t -> int -> conflict
  (** @raise Ddf_core.Error.Ddf_error on an unknown id. *)

  val find_conflict_pair : t -> Store.iid -> Store.iid -> conflict option
  (** The conflict whose \{ours, theirs\} equals the unordered pair, if
      any — the dedup key: both peers record the same divergence with
      the orientation swapped. *)

  val all_conflicts : t -> conflict list

  val conflicts : t -> conflict list
  (** Unresolved conflicts, oldest first. *)

  (** {2 Chaining (Fig. 10)}

      The history state holds, per instance, the record that produced
      it and the records using it (the records themselves, shared with
      the record column), so a chaining step is one column read. *)

  val derivation_of : t -> Store.iid -> record option
  (** The record that created an instance; [None] for sources installed
      directly by the designer. *)

  val uses_of : t -> Store.iid -> record list
  (** Records consuming the instance (as input or as tool), oldest
      first; a record appears once per role the instance fills. *)

  val find_derivation :
    t -> tool:Store.iid option -> inputs:(string * Store.iid) list ->
    out_entities:string list -> record option
  (** The memo lookup: the oldest record with this tool, these
      role-bound inputs (in any order) and an output of every entity in
      [out_entities].  It walks the users list of whichever of the tool
      and inputs has the fewest users, so its cost does not grow with a
      widely shared input's uses; [None] when there is neither. *)

  val backward_closure : t -> Store.iid -> record list
  (** The complete derivation history, nearest record first. *)

  val forward_closure : t -> Store.iid -> record list
  (** Every record transitively depending on the instance, once each,
      in preorder: a record's users follow it, oldest use first. *)

  val derived_instances : t -> Store.iid -> Store.iid list
  (** The outputs of {!forward_closure}, ascending: the [uses] query. *)

  val ancestor_instances : t -> Store.iid -> Store.iid list

  (** {2 Flow traces (Fig. 11(b))} *)

  val trace :
    t -> 'a Store.Snapshot.t -> Schema.t -> Store.iid ->
    Ddf_graph.Task_graph.t * int * (int * Store.iid) list
  (** The derivation of an instance as a task graph plus its instance
      binding: [(graph, root node, node -> instance)], the binding in
      node order.  The same form is used for queries and for
      re-execution.  Two kinds of instance are leaves even when a
      record produced them, because no task of the schema did: an
      instance of a [Schema.Source] entity (a source declares no
      construction roles; the engine records a batch merge's parts as
      [part0], [part1], ...), and a part of a decomposition (a record
      with no tool whose one input fills the role ["composite"]).  Such
      a record is not walked; it stays in the history and in
      {!backward_closure}.  The graph is assembled with no check:
      {!add} checked every record it is made of.  The walk asks the
      schema for each entity's rule once, not once per node. *)

  val trace_text : t -> 'a Store.Snapshot.t -> Schema.t -> Store.iid -> string
  (** [Task_graph.to_ascii] of the {!trace} graph followed by the line
      ["(N instances in the derivation)"], rendered in one walk over
      the records without assembling the graph.  Lines indent two
      spaces per level down to [Task_graph.max_indent] (16) levels; a
      deeper line is indented 32 spaces and prefixed with its depth as
      ["[depth] "] (["[417] d?/netlist: edited_netlist#834"]), so the
      text grows linearly with the derivation, not with its depth
      squared.  It checks nothing, and it has the leaves {!trace} has.
      The work per node is two [Dense] column reads (the store's
      entity, the producing record) and two writes into int arrays of
      a scratch stamped per walk, so a walk allocates no table. *)

  (** {2 Query by template (section 4.2)} *)

  val query_template :
    t -> 'a Store.Snapshot.t -> Ddf_graph.Task_graph.t ->
    bound:(int * Store.iid) list -> (int * Store.iid) list list
  (** All bindings of the template's nodes to instances consistent with
      the recorded history; [bound] pins some nodes.  Result capped at
      1000 bindings. *)

  (** {2 Versioning (Fig. 11)}

      A record is an editing task when one of its inputs shares an
      output's root entity type; that input is the output's version
      parent.  {!add} files every such edge in a version index that is
      part of the history state: parent and children per instance, and
      per version tree its members ordered by (creation time, iid).  So
      every query below is O(log n + answer) on any snapshot, and needs
      no store or schema. *)

  val version_parent : t -> Store.iid -> Store.iid option
  (** The edit predecessor: the input of the producing record whose
      entity shares the instance's root type. *)

  val version_children : t -> Store.iid -> Store.iid list
  (** Direct edit successors, ascending — more than one means
      alternative versions branch here (deliberate alternatives, or a
      sync merge of divergent workspaces). *)

  val version_tree : t -> Store.iid -> version_tree

  val versions : t -> Store.iid -> Store.iid list
  (** Every version in the instance's tree, ascending by iid. *)

  val latest_version : t -> Store.iid -> Store.iid
  (** The newest version by creation time (ties go to the higher iid);
      the instance itself when it has no versions. *)

  (** {2 Consistency} *)

  val out_of_date : t -> Store.iid -> (string * Store.iid * Store.iid list) list
  (** Inputs of the derivation that have versions created after it:
      [(role, input, newer versions)]. *)

  val is_up_to_date : t -> Store.iid -> bool
end

(** {1 Live reads kept for [perfbench/replay.ml] until ROADMAP item 8}

    Each is its {!Snapshot} namesake over a fresh {!snapshot}.  The
    store and schema arguments are read by nothing; they stay because
    the benchmark's in-process replay passes them. *)

val versions : t -> 'a Store.t -> Schema.t -> Store.iid -> Store.iid list
val latest_version : t -> 'a Store.t -> Schema.t -> Store.iid -> Store.iid

val out_of_date :
  t -> 'a Store.t -> Schema.t -> Store.iid ->
  (string * Store.iid * Store.iid list) list

val ancestor_instances : t -> Store.iid -> Store.iid list

val pp_record : Format.formatter -> record -> unit
val pp : Format.formatter -> t -> unit
