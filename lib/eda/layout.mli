(** Standard-cell layout: the physical view of Fig. 7.

    [place] is the placer tool: levelized row placement with
    per-channel trunk routing.  Connectivity lives only in the geometry
    (pins and wire segments joined at shared via points), so extraction
    genuinely recovers the netlist from coordinates, and an edit that
    moves a cell without rerouting genuinely breaks LVS. *)

type pin = {
  pname : string;
  px : int;
  py : int;
}

type cell_kind =
  | Gate_cell of Logic.gate_op * int  (** operator, drive *)
  | Input_pad of string               (** primary-input port *)
  | Output_pad of string

type cell = {
  cname : string;
  kind : cell_kind;
  x : int;
  y : int;
  width : int;
  height : int;
  pins : pin list;
}

type segment = private {
  x1 : int;
  y1 : int;
  x2 : int;
  y2 : int;
}

type t = {
  layout_name : string;
  cells : cell list;
  wires : segment list;
  die_width : int;
  die_height : int;
}

exception Layout_error of string

val segment : int -> int -> int -> int -> segment
(** Normalized axis-parallel segment.
    @raise Layout_error on a diagonal. *)

val place : ?name_suffix:string -> Netlist.t -> t
(** The placer tool: rows by logic level, pads at the die edges, one
    private trunk track per net, one vertical per pin. *)

(** {1 Metrics} *)

val area : t -> int
val cell_count : t -> int
val wirelength : t -> int

(** {1 Edits (the layout-editor tool)} *)

type edit =
  | Move_cell of string * int * int
      (** moves the cell and its pins; does NOT reroute *)
  | Delete_cell of string
  | Rename_layout of string
  | Add_segment of segment
  | Delete_segment of segment

val find_cell : t -> string -> cell option
val apply_edit : t -> edit -> t
val apply_edits : t -> edit list -> t

val hash : t -> string
val pp : Format.formatter -> t -> unit
