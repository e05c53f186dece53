(** View management through flows (section 3.3, Figs. 7-8).

    Designers see a cell as a logic view, a transistor-level view and a
    physical view.  Associating views with schema entities lets flows
    express the transformations between views: synthesis derives the
    physical view (Fig. 8a), verification checks correspondence by
    extraction and comparison (Fig. 8b).  View management needs no
    machinery beyond dynamically defined flows; this module names the
    conventions. *)

open Ddf_store

type cell_views = {
  cv_logic : Store.iid;
  cv_transistor : Store.iid;
  cv_physical : Store.iid;
}

val derive_views :
  Ddf_exec.Engine.context -> logic:Store.iid -> placer_tool:Store.iid ->
  expander_tool:Store.iid -> cell_views
(** Derive the transistor and physical views of a logic view through
    two flows, recorded in the history (Fig. 7). *)

val verify_physical :
  Ddf_exec.Engine.context -> logic:Store.iid -> physical:Store.iid ->
  extractor_tool:Store.iid -> verifier_tool:Store.iid ->
  Store.iid * Ddf_eda.Lvs.t
(** The Fig. 8(b) flow: extract the physical view and compare against
    the logic view; returns the verification instance and its verdict. *)

val transistor_corresponds :
  Ddf_exec.Engine.context -> logic:Store.iid -> transistor:Store.iid ->
  Ddf_eda.Rng.t -> bool
(** Switch-level vs. gate-level functional agreement. *)
