(** Edit scripts: the data carried by a netlist-editor tool instance.

    Editing tasks are what versioning hangs off in the paper (Fig. 11):
    tasks whose data dependency's source and target share an entity
    type.  A script is itself a design datum, so it hashes and prints. *)

type edit =
  | Rename of string
  | Add_gate of {
      gname : string;
      op : Logic.gate_op;
      inputs : string list;
      output : string;
      drive : int;
    }
  | Remove_gate of string
  | Set_drive of string * int
  | Insert_buffer of { net : string; gname : string }
      (** re-drive all readers of [net] through a new buffer *)

type t = {
  script_name : string;
  edits : edit list;
}

exception Edit_error of string

val create : ?name:string -> edit list -> t
val apply : Netlist.t -> t -> Netlist.t

val apply_from_scratch :
  primary_inputs:string list -> primary_outputs:string list -> t -> Netlist.t
(** Editing with the optional base dependency left unfilled: create a
    design from nothing. *)

val hash : t -> string
val pp : Format.formatter -> t -> unit
