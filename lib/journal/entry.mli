(** The journal's entries, described once.

    Every entry the wal, the cement segments, the replication feed and
    sync frames carry is one binary record: a kind byte, then the
    kind's fields as {!Ddf_wire.Layout} lays them out.  Encoder and
    decoder are both read off one description per kind.

    A put carries its value as flat s-expression text, never as a
    tree: for a wire install, the bytes of the request frame's value
    exactly as the client sent them; for an engine-derived value,
    printed once.  Replay parses the text and re-checks the content
    hash.

    This is entry format 2.  Entries of format 1 (the s-expression
    entries of earlier builds) are refused by name: there is no reader
    for them. *)

(** A history record as the journal and the checkpoint store it. *)
type record_parts = {
  rp_rid : int;
  rp_task_entity : string;
  rp_tool : Ddf_store.Store.iid option;
  rp_inputs : (string * Ddf_store.Store.iid) list;
  rp_outputs : (string * Ddf_store.Store.iid) list;
  rp_at : int;
}

val record_parts : record_parts Ddf_wire.Layout.fld
(** A record's layout, shared by the record entry and the checkpoint. *)

type t =
  | Put of {
      iid : int;
      clock : int;
      entity : string;
      hash : string;
      meta : Ddf_store.Store.meta;
      text : string;  (** the value, flat s-expression text *)
    }
  | Note of { iid : int; meta : Ddf_store.Store.meta }
  | Record of { clock : int; record : record_parts }
  | Conflict of {
      clock : int;
      conflict : int;
      base : int;
      ours : int;
      theirs : int;
      origin : string;
      at : int;
    }
  | Resolve of { clock : int; conflict : int; winner : int }

val encode : t -> string

val decode : string -> t
(** @raise Ddf_core.Error.Ddf_error on anything but a well-formed
    entry: [`Invalid] naming format 1 for an s-expression entry,
    [`Internal] for truncated, unknown or trailing bytes. *)

(** A put entry but its value's text. *)
type put_head = {
  ph_iid : int;
  ph_clock : int;
  ph_entity : string;
  ph_hash : string;
  ph_meta : Ddf_store.Store.meta;
}

val put_head : string -> put_head option
(** The head of an encoded put entry, decoded as {!decode} would but
    for the text, which is checked to end the entry and not copied
    (cold replay installs a put without its value); [None] for an
    entry of another kind.
    @raise Ddf_core.Error.Ddf_error ([`Internal]) on a put that is
    truncated or has bytes after its text. *)

val value : iid:int -> hash:string -> string -> Ddf_data.value
(** A put's value, parsed back from its text and checked against the
    content hash the put recorded.
    @raise Ddf_core.Error.Ddf_error ([`Internal], naming [iid]) when
    the text is not a value or its hash differs. *)

val classify : string -> char * int
(** The cement index's view of an encoded entry, read off its head
    without decoding the rest: the kind ([p]/[n]/[r]/[c]/[v] for
    put/note/record/conflict/resolve, [?] for anything else) and, for
    puts and notes, the iid (0 otherwise).  Total: never raises. *)
