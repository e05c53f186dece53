(** S-expression codecs for every design-data payload.

    Round-trip fidelity matters: gate and cell names survive (edit
    scripts reference them), floats are written exactly, and compiled
    simulators serialize by source hash and are recompiled on load. *)

exception Codec_error of string

val value_to_sexp : Ddf_data.value -> Sexp.t

val value_of_sexp : Sexp.t -> Ddf_data.value
(** @raise Codec_error on malformed payloads, including text that a
    payload's own constructor refuses. *)

(** {1 Individual codecs (exposed for tests and external tooling)} *)

val netlist_to_sexp : Ddf_eda.Netlist.t -> Sexp.t
val layout_to_sexp : Ddf_eda.Layout.t -> Sexp.t
val edit_to_sexp : Ddf_eda.Edit_script.edit -> Sexp.t
val edit_of_sexp : Sexp.t -> Ddf_eda.Edit_script.edit
val layout_edit_to_sexp : Ddf_eda.Layout.edit -> Sexp.t
val layout_edit_of_sexp : Sexp.t -> Ddf_eda.Layout.edit
