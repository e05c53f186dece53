(** The transistor-level view of a circuit (Fig. 7), with genuine
    switch-level evaluation.

    Gates decompose into inverting CMOS primitives (NOT, NAND, NOR),
    each expanding into a complementary stage of devices.  Evaluation
    runs conducting-path analysis over the pull-up and pull-down
    channel graphs per stage, with X handled by strong/possible path
    distinction — a different computational model than gate evaluation,
    which is what makes the logic/transistor correspondence check of
    Fig. 8 meaningful. *)

type device_type =
  | Nmos
  | Pmos

type device = {
  dname : string;
  dtype : device_type;
  gate_net : string;
  source : string;
  drain : string;
}

type stage = {
  out : string;
  devices : device list;
}

type t = {
  tname : string;
  inputs : string list;
  outputs : string list;
  stages : stage list;
}

exception Transistor_error of string

val vdd : string

val of_netlist : Netlist.t -> t
(** CMOS expansion; XOR/XNOR lower through the four-NAND structure. *)

val device_count : t -> int

val eval : t -> (string * Logic.value) list -> (string * Logic.value) list
(** Switch-level evaluation of the primary outputs: 1 when a strong
    pull-up path exists and no possible pull-down, 0 dually, X
    otherwise (including fights). *)

val corresponds : ?samples:int -> Netlist.t -> t -> Rng.t -> bool
(** Functional agreement with the gate-level view: exhaustive up to 10
    inputs, random sampling above. *)

val hash : t -> string
val pp : Format.formatter -> t -> unit
