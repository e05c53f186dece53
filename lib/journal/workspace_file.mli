(** Workspace persistence.

    The paper's framework is a persistent database: a session — store
    instances with their meta-data, history records, the flow catalog,
    the logical clock — saves to one binary checkpoint and loads back
    exactly (asserted by dense-id checks and recomputed content hashes;
    the save of a reloaded session is byte-identical, a tested
    fixpoint).  Compiled simulators persist their full instruction
    program.

    This is checkpoint format 4, described once as a
    {!Ddf_wire.Layout} stream beside the journal's entries: a header
    naming the journal seq it covers, instance rows,
    {!Entry.record_parts} rows, conflicts and catalog flows.  Each row
    is checked as it is decoded; the instance rows are installed as one
    batch ({!Ddf_store.Store.put_rows}) and the record rows added as one
    ({!Ddf_history.History.add_many}), so each state is built once.  An instance's
    payload slot is its value as flat text, or, in a journal
    checkpoint, a reference to the cemented put frame that installed
    it.  A file of an earlier format (1 to 3) is refused by name. *)

exception Persist_error of string

val save :
  ?seq:int ->
  ?from:int ->
  ?cemented:(Ddf_store.Store.iid -> int option) ->
  ?cold_text:(Ddf_store.Store.iid -> string option) ->
  Ddf_session.Session.t -> string
(** The workspace as checkpoint bytes, covering journal entries
    1..[seq] (default 0), whose line's log starts at entry [from]
    (default [seq + 1]).  Without [cemented] the save is
    self-contained: every payload inline.  With it, an instance for
    which [cemented iid] is [Some seq] gets a reference to cemented put
    [seq] instead of its payload, which is then never read.  A payload
    that is not resident is taken as [cold_text iid] when that is
    [Some text] (the value's flat text, as its put entry carries it),
    so a self-contained save neither parses nor promotes it. *)

val save_file : Ddf_session.Session.t -> string -> unit
(** A self-contained {!save} written to a file, replacing it atomically
    ({!Ddf_disk.Disk.replace}): a crash mid-save leaves the old file. *)

val load :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?cemented:(Ddf_store.Store.iid -> int option) ->
  Ddf_schema.Schema.t -> string -> Ddf_session.Session.t
(** Referenced instances are restored cold (rows with no payload):
    each reference must name the put seqno [cemented iid] reports;
    without [cemented], any reference is an error.
    @raise Persist_error on malformed or truncated bytes, an unknown
    format, non-dense ids, content-hash mismatches (tampering or
    corruption) or a reference the cement store does not hold (the
    message names the iid).
    @raise Ddf_core.Error.Ddf_error ([`Invalid]) on a workspace file of
    an earlier format, naming it, and on a record the schema's rules
    refuse, naming the record. *)

val load_file :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?cemented:(Ddf_store.Store.iid -> int option) ->
  Ddf_schema.Schema.t -> string -> int * int * Ddf_session.Session.t
(** {!load} of the file at the path: [(seq, from, session)]. *)

(** {1 Stored records}

    The checkpoint, the wal and sync apply all admit records through
    {!add_record}. *)

val record_parts : Ddf_history.History.record -> Entry.record_parts

val add_record :
  Ddf_exec.Engine.context -> Entry.record_parts -> Ddf_history.History.record
(** {!Ddf_history.History.add} of a stored record, in the context's
    store, history and schema: checkpoint load, wal replay and sync
    apply admit records through it.
    @raise Ddf_core.Error.Ddf_error ([`Invalid]) naming the record's rid
    when the schema's construction rules refuse it. *)
