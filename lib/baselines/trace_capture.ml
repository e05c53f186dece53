(* Casotto-style design traces (DAC'90), the paper's other baseline.

   A trace is a historical record of tool invocations, captured with no
   schema: anything the designer does is accepted.  Existing traces can
   be replayed as prototypes for new activities.  What the approach
   lacks -- and what the experiments measure -- is methodology
   enforcement (illegal steps are captured just as happily) and
   generalized indexing (traces are tied to concrete file names, not
   entity types). *)

open Ddf_schema

type event = {
  ev_tool : string;
  ev_consumed : string list;   (* concrete object names *)
  ev_produced : string list;
}

type trace = {
  trace_name : string;
  events : event list;  (* chronological *)
}

type t = {
  mutable current : event list;  (* reversed *)
  mutable archive : trace list;
}

let create () = { current = []; archive = [] }

(* Capture accepts anything: that is the point. *)
let capture t ~tool ~consumed ~produced =
  t.current <- { ev_tool = tool; ev_consumed = consumed; ev_produced = produced }
                :: t.current

let cut t name =
  let tr = { trace_name = name; events = List.rev t.current } in
  t.archive <- tr :: t.archive;
  t.current <- [];
  tr

let archive t = List.rev t.archive

(* Replay a trace as a prototype: substitute new object names through a
   mapping; names without a mapping are kept (shared libraries etc.). *)
let replay tr ~substitute =
  let sub name = match List.assoc_opt name substitute with
    | Some n -> n
    | None -> name
  in
  {
    trace_name = tr.trace_name ^ "_replay";
    events =
      List.map
        (fun e ->
          {
            ev_tool = e.ev_tool;
            ev_consumed = List.map sub e.ev_consumed;
            ev_produced = List.map sub e.ev_produced;
          })
        tr.events;
  }

(* Indexing is by concrete object name only: finding the traces that
   touched an object requires a scan, and there is no entity-type
   generalization (a "netlist" query is impossible). *)
let traces_touching t name =
  List.filter
    (fun tr ->
      List.exists
        (fun e -> List.mem name e.ev_consumed || List.mem name e.ev_produced)
        tr.events)
    (archive t)

(* Post-hoc schema check: which captured events would a schema-checked
   system have rejected?  [typing] maps a concrete object name to its
   entity type. *)
type violation = {
  v_event : event;
  v_reason : string;
}

let check_against_schema schema ~typing tr =
  let violations = ref [] in
  let fail e reason = violations := { v_event = e; v_reason = reason } :: !violations in
  List.iter
    (fun e ->
      match e.ev_produced with
      | [] -> fail e "produced nothing"
      | produced ->
        List.iter
          (fun out ->
            match typing out with
            | None -> fail e (Printf.sprintf "unknown object %s" out)
            | Some entity -> (
              if not (Schema.mem schema entity) then
                fail e (Printf.sprintf "no entity %s in schema" entity)
              else
                match Schema.functional_dep schema entity with
                | None ->
                  if Schema.effective_deps schema entity = [] && e.ev_tool <> "" then
                    fail e
                      (Printf.sprintf "%s is a source entity, no tool may produce it"
                         entity)
                | Some d ->
                  if not (Schema.is_subtype schema ~sub:e.ev_tool ~super:d.Schema.target)
                  then
                    fail e
                      (Printf.sprintf "%s must be produced by %s, not %s" entity
                         d.Schema.target e.ev_tool)))
          produced)
    tr.events;
  List.rev !violations
