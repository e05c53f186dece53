(** Levelized compiled-code simulation, in the manner of COSMOS
    (the paper's Fig. 2 example of a tool created during design).

    [compile] lowers a netlist to a flat instruction program over
    integer-indexed nets; each [run_vector] is then one linear pass.
    The compile/run cost asymmetry against {!Sim_event} is measured by
    experiment E2. *)

type instr = private {
  op : Logic.gate_op;
  args : int array;
  dst : int;
}

type t = private {
  source_name : string;
  source_hash : string;
  net_index : (string * int) list;
  n_nets : int;
  program : instr array;
  input_slots : (string * int) list;
  output_slots : (string * int) list;
  flop_slots : (int * int * Logic.value) list;
      (** per flop: (d slot, q slot, initial value) *)
}

exception Compile_error of string

val compile : Netlist.t -> t
val instruction_count : t -> int

val initial_state : t -> Logic.value list

val cycle :
  t -> Logic.value list -> Stimuli.vector ->
  (string * Logic.value) list * Logic.value list
(** One clock cycle under a flop state: outputs and next state. *)

val run : t -> Stimuli.t -> (string * Logic.value) list list
(** One response list per stimulus vector; for sequential designs the
    flop state threads across vectors (one clock edge per vector). *)

val run_trace : t -> Stimuli.t -> (string * int) list
(** Per-net toggle counts across consecutive vectors: the activity
    profile used when the compiled simulator is passed as data to the
    optimizer (section 3.3). *)

val rebuild :
  ?flop_slots:(int * int * Logic.value) list ->
  source_name:string -> source_hash:string -> net_index:(string * int) list ->
  n_nets:int -> program:(Logic.gate_op * int array * int) list ->
  input_slots:(string * int) list -> output_slots:(string * int) list ->
  unit -> t
(** Reassemble a compiled simulator from persisted parts, revalidating
    slot bounds and arities. @raise Compile_error on violation. *)

val hash : t -> string
