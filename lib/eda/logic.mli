(** Three-valued logic and the gate operator alphabet of the netlist
    substrate. *)

(** Signal values: [VX] is unknown / uninitialized. *)
type value =
  | V0
  | V1
  | VX

type gate_op =
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor

val all_ops : gate_op list
val op_name : gate_op -> string
val op_of_name : string -> gate_op option

val arity_ok : gate_op -> int -> bool
(** [Buf]/[Not] are unary; the rest take two or more inputs. *)

val value_name : value -> string

(** {1 Three-valued operators (pessimistic X propagation)} *)

val v_not : value -> value
val v_and : value -> value -> value
val v_or : value -> value -> value
val v_xor : value -> value -> value

val eval : gate_op -> value list -> value
(** Evaluate an operator over its inputs.
    @raise Invalid_argument on an arity violation. *)

(** {1 Values as ints} *)

val code : value -> int
(** [V0] is 0, [V1] 1 and [VX] 2. *)

val of_code : int -> value

val eval_code : gate_op -> int array -> int array -> int
(** [eval_code op inputs values] is {!eval} over codes, operand [i]
    being [values.(inputs.(i))]: the event simulator's evaluator.
    @raise Invalid_argument as {!eval} on an arity violation. *)

val of_bool : bool -> value
val to_bool : value -> bool option

(** {1 Cell characterization} *)

val intrinsic_delay_ps : gate_op -> int
(** Unloaded gate delay in picoseconds, before device-model scaling. *)

val energy_weight : gate_op -> float
(** Relative switching energy, for the activity-based power model. *)

val transistor_count : gate_op -> int -> int
(** CMOS device count of the reference cell at the given arity. *)
