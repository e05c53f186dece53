(** The PLA generator tool: re-implement a logic function as a
    programmable logic array (the standard-cell-to-PLA scenario of the
    paper's section 2).

    The truth table is lifted by exhaustive compiled simulation; the
    AND plane is minimized by iterated cube merging with a greedy
    essential-first cover (a light Quine-McCluskey); identical product
    terms are shared across outputs. *)

type literal =
  | L_true
  | L_false
  | L_dash

type cube = literal array

type t = {
  pla_name : string;
  inputs : string list;
  outputs : string list;
  and_plane : cube list;
  or_plane : bool array list;
}

exception Pla_error of string

(** {1 Cube algebra} *)

val cube_key : cube -> string

(** {1 Synthesis} *)

val of_netlist : Netlist.t -> t
val product_terms : t -> int

val to_netlist : t -> Netlist.t
(** Two-level AND-OR lowering with on-demand inverted input rails. *)

val to_layout : t -> Layout.t

val equivalent : Netlist.t -> t -> bool
(** Does the PLA compute exactly the source's truth table? *)

val hash : t -> string
val pp : Format.formatter -> t -> unit
