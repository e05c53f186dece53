(** Workspace persistence.

    The paper's framework is a persistent database: a session — store
    instances with their meta-data, history records, the flow catalog,
    the logical clock — saves to one s-expression file and loads back
    exactly (asserted by dense-id checks and recomputed content hashes;
    the save of a reloaded session is byte-identical, a tested
    fixpoint).  Compiled simulators persist their full
    instruction program.

    Format version 2 lets a journal checkpoint carry, in place of an
    instance's payload, a reference to the cemented put frame that
    installed it; version 1 files still load. *)

exception Persist_error of string

val format_version : int

val save :
  ?cemented:(Ddf_store.Store.iid -> int option) ->
  Ddf_session.Session.t -> string
(** The workspace as text.  Without [cemented] the save is
    self-contained: every payload inline.  With it, an instance for
    which [cemented iid] is [Some seq] gets a reference to cemented put
    [seq] instead of its payload, which is then never read. *)

val save_file : Ddf_session.Session.t -> string -> unit
(** A self-contained {!save} written to a file. *)

val load :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?cemented:(Ddf_store.Store.iid -> int option) ->
  Ddf_schema.Schema.t -> string -> Ddf_session.Session.t
(** Referenced instances are restored cold ({!Ddf_store.Store.put_cold}):
    each reference must name the put seqno [cemented iid] reports;
    without [cemented], any reference is an error.
    @raise Persist_error on syntax errors, version mismatch, non-dense
    ids, content-hash mismatches (tampering/corruption) or a reference
    the cement store does not hold (the message names the iid). *)

val load_file :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?cemented:(Ddf_store.Store.iid -> int option) ->
  Ddf_schema.Schema.t -> string -> Ddf_session.Session.t

(** {1 Stored records}

    The journal's record entries carry a record as its parts; the
    checkpoint, the wal and sync apply all admit records through
    {!add_record}. *)

type record_parts = {
  rp_rid : int;
  rp_task_entity : string;
  rp_tool : Ddf_store.Store.iid option;
  rp_inputs : (string * Ddf_store.Store.iid) list;
  rp_outputs : (string * Ddf_store.Store.iid) list;
  rp_at : int;
}

val record_parts : Ddf_history.History.record -> record_parts

val add_record : Ddf_exec.Engine.context -> record_parts -> Ddf_history.History.record
(** {!Ddf_history.History.add} of a stored record, in the context's
    store, history and schema: checkpoint load, wal replay and sync
    apply admit records through it.
    @raise Ddf_core.Error.Ddf_error ([`Invalid]) naming the record's rid
    when the schema's construction rules refuse it. *)
