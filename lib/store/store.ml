(* The design-object store.

   Every design object is an *instance*: per-instance meta-data (user,
   logical timestamp, name, comment, keywords -- the browser columns of
   Fig. 9) plus a reference to content-addressed physical data.  As the
   paper's footnote 5 notes, several instances (different versions of a
   design) may share one physical datum; sharing falls out of content
   addressing here.  The store is polymorphic in the payload so the
   framework layers stay independent of the EDA substrate.

   MVCC: the whole hot state lives in one immutable record behind an
   [Atomic.t].  A snapshot is just [Atomic.get] — O(1), no locks — and
   stays valid forever; mutations build a new record and CAS it in.
   The only concurrent writers are the (single) mutator and readers
   promoting cold payloads, so CAS retries are rare. *)

module Int_map = Map.Make (Int)
module String_map = Map.Make (String)

type iid = int

type meta = {
  user : string;
  created_at : int;          (* logical clock value *)
  label : string;            (* the designer-facing name *)
  comment : string;
  keywords : string list;
}

type 'a instance = {
  iid : iid;
  entity : string;           (* schema entity the instance belongs to *)
  data_hash : string;
  meta : meta;
}

type 'a event =
  | Put of 'a instance * 'a
  | Annotated of 'a instance

(* A physical datum is resident, or cold: known by its hash but held
   only in cold storage (evicted, or restored from a checkpoint that
   references it).  Either way it counts for dedup and [physical_count]. *)
type 'a slot = Resident of 'a | Cold

(* The immutable hot state: everything a read needs, in persistent
   maps.  [Int_map] iterates in ascending iid order, which is exactly
   the store's installation order (iids are dense and ascending), so
   the old [all_rev] list is redundant. *)
type 'a state = {
  st_next_iid : int;
  st_instances : 'a instance Int_map.t;
  st_payloads : 'a slot String_map.t;   (* content-addressed physical data *)
  st_by_entity : 'a instance Int_map.t String_map.t;
  (* each entity's instances: [st_instances] split by entity, kept in
     step by [install] and [annotate] *)
  st_phys : int;                   (* cardinal of st_payloads, O(1) *)
}

type 'a t = {
  state : 'a state Atomic.t;
  mutable observer : ('a event -> unit) option;
  mutable cold_loader : (iid -> 'a option) option;
  (* tiered storage: reloads an evicted payload from cold storage *)
}

type 'a snapshot = {
  snap_state : 'a state;
  snap_source : 'a t;
  (* the handle is carried for the cold loader and for promoting
     reloaded payloads back into the *live* state; the snapshot's own
     view never changes *)
}

let store_errorf ?(code = `Invalid) fmt = Ddf_core.Error.errorf code fmt

let m_puts = Ddf_obs.Metrics.counter "store.puts"
let m_dedup = Ddf_obs.Metrics.counter "store.dedup_hits"
let m_browses = Ddf_obs.Metrics.counter "store.browses"
let m_cold_loads = Ddf_obs.Metrics.counter "store.cold_loads"
let m_evictions = Ddf_obs.Metrics.counter "store.evictions"

let empty_state =
  {
    st_next_iid = 1;
    st_instances = Int_map.empty;
    st_payloads = String_map.empty;
    st_by_entity = String_map.empty;
    st_phys = 0;
  }

let create () =
  {
    state = Atomic.make empty_state;
    observer = None;
    cold_loader = None;
  }

(* Apply a pure state transform with a CAS retry loop.  [f] must be
   side-effect free (it may run more than once under contention);
   the returned value from the *winning* application is handed back so
   callers run their side effects (observer notify, metrics) once. *)
let rec update store f =
  let old_state = Atomic.get store.state in
  let new_state, ret = f old_state in
  if Atomic.compare_and_set store.state old_state new_state then ret
  else update store f

let snapshot store = { snap_state = Atomic.get store.state; snap_source = store }

let tick store = (Atomic.get store.state).st_next_iid

let restore_tick store n =
  update store (fun st ->
      if n < st.st_next_iid then
        store_errorf "cannot move the instance counter back (%d < %d)" n
          st.st_next_iid;
      ({ st with st_next_iid = n }, ()))

let set_observer store f = store.observer <- Some f
let clear_observer store = store.observer <- None

let notify store ev =
  match store.observer with None -> () | Some f -> f ev

let meta ?(user = "designer") ?(label = "") ?(comment = "") ?(keywords = [])
    ~created_at () =
  { user; created_at; label; comment; keywords }

(* Install an instance over [slot], counting the put and any dedup
   hit (its hash already known, resident or cold). *)
let install store ~entity ~hash ~meta slot =
  let inst, dedup =
    update store (fun st ->
        let iid = st.st_next_iid in
        let inst = { iid; entity; data_hash = hash; meta } in
        let known = String_map.find_opt hash st.st_payloads in
        let dedup = known <> None in
        let st_payloads =
          (* content-hash sharing: a second instance over the same
             datum keeps the first payload (a resident one replaces a
             cold one: it is in hand) *)
          match (known, slot) with
          | Some (Resident _), _ | Some Cold, Cold -> st.st_payloads
          | (Some Cold | None), _ -> String_map.add hash slot st.st_payloads
        in
        let bucket =
          match String_map.find_opt entity st.st_by_entity with
          | Some m -> Int_map.add iid inst m
          | None -> Int_map.singleton iid inst
        in
        ( {
            st_next_iid = iid + 1;
            st_instances = Int_map.add iid inst st.st_instances;
            st_payloads;
            st_by_entity = String_map.add entity bucket st.st_by_entity;
            st_phys = (if dedup then st.st_phys else st.st_phys + 1);
          },
          (inst, dedup) ))
  in
  Ddf_obs.Metrics.incr m_puts;
  if dedup then Ddf_obs.Metrics.incr m_dedup;
  inst

let put store ~entity ~hash ~meta payload =
  let inst = install store ~entity ~hash ~meta (Resident payload) in
  notify store (Put (inst, payload));
  inst.iid

let put_cold store ~entity ~hash ~meta =
  (install store ~entity ~hash ~meta Cold).iid

let annotate store iid ?label ?comment ?keywords () =
  let inst =
    update store (fun st ->
        match Int_map.find_opt iid st.st_instances with
        | None -> store_errorf ~code:`Not_found "no instance %d" iid
        | Some inst ->
          let m = inst.meta in
          let m =
            {
              m with
              label = Option.value label ~default:m.label;
              comment = Option.value comment ~default:m.comment;
              keywords = Option.value keywords ~default:m.keywords;
            }
          in
          let inst = { inst with meta = m } in
          ( { st with
              st_instances = Int_map.add iid inst st.st_instances;
              st_by_entity =
                String_map.update inst.entity
                  (Option.map (Int_map.add iid inst))
                  st.st_by_entity },
            inst ))
  in
  notify store (Annotated inst)

let set_cold_loader store f = store.cold_loader <- Some f
let clear_cold_loader store = store.cold_loader <- None

let evict store iid =
  let dropped =
    update store (fun st ->
        match Int_map.find_opt iid st.st_instances with
        | None -> (st, false)
        | Some inst -> (
          match String_map.find_opt inst.data_hash st.st_payloads with
          | Some (Resident _) ->
            ( { st with
                st_payloads = String_map.add inst.data_hash Cold st.st_payloads },
              true )
          | Some Cold | None -> (st, false)))
  in
  if dropped then Ddf_obs.Metrics.incr m_evictions;
  dropped

(* Promote a cold-loaded payload into the *live* resident table so
   later readers stay hot.  Runs on the read path, possibly from a
   reader domain: a plain CAS loop against the owning handle. *)
let promote store hash payload =
  update store (fun st ->
      match String_map.find_opt hash st.st_payloads with
      | Some (Resident _) -> (st, ())
      | Some Cold | None ->
        ( { st with
            st_payloads = String_map.add hash (Resident payload) st.st_payloads },
          () ))

(* ------------------------------------------------------------------ *)
(* Browser filters (the Fig. 9 instance browser)                       *)
(* ------------------------------------------------------------------ *)

type filter = {
  f_entities : string list option;  (* accepted entity ids; None = all *)
  f_user : string option;
  f_from : int option;              (* inclusive timestamp bounds *)
  f_to : int option;
  f_keywords : string list;         (* all must be present *)
  f_text : string option;           (* substring of label or comment *)
}

let any_filter =
  { f_entities = None; f_user = None; f_from = None; f_to = None;
    f_keywords = []; f_text = None }

(* Does [hay] contain [needle] (already lowercase), ignoring ASCII
   case?  Compares in place: no lowercased copy, no substring. *)
let contains_ci hay needle =
  let n = String.length needle and h = String.length hay in
  let rec match_at i j =
    j = n
    || Char.lowercase_ascii hay.[i + j] = needle.[j] && match_at i (j + 1)
  in
  let rec from i = i + n <= h && (match_at i 0 || from (i + 1)) in
  from 0

(* Compile a filter's meta-data tests into a predicate: the text
   needle is lowercased once here, not once per instance scanned. *)
let compile_meta filter =
  let needle = Option.map String.lowercase_ascii filter.f_text in
  fun m ->
    (match filter.f_user with None -> true | Some u -> m.user = u)
    && (match filter.f_from with None -> true | Some t -> m.created_at >= t)
    && (match filter.f_to with None -> true | Some t -> m.created_at <= t)
    && List.for_all (fun k -> List.mem k m.keywords) filter.f_keywords
    && (match needle with
       | None -> true
       | Some ln -> contains_ci m.label ln || contains_ci m.comment ln)

let compile filter =
  let meta_ok = compile_meta filter in
  match filter.f_entities with
  | None -> fun inst -> meta_ok inst.meta
  | Some es -> fun inst -> List.mem inst.entity es && meta_ok inst.meta

(* ------------------------------------------------------------------ *)
(* The snapshot read API — every read below sees one frozen state.     *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type 'a t = 'a snapshot

  let source snap = snap.snap_source
  let tick snap = snap.snap_state.st_next_iid

  let find_opt snap iid = Int_map.find_opt iid snap.snap_state.st_instances

  let find snap iid =
    match find_opt snap iid with
    | Some inst -> inst
    | None -> store_errorf ~code:`Not_found "no instance %d" iid

  let mem snap iid = Int_map.mem iid snap.snap_state.st_instances

  let payload_resident snap iid =
    match String_map.find_opt (find snap iid).data_hash snap.snap_state.st_payloads with
    | Some (Resident _) -> true
    | Some Cold | None -> false

  (* Hot path first: a resident payload is one map lookup.  On a miss,
     fall through to cold storage (if wired) and promote the reloaded
     payload back into the live resident table so later snapshots stay
     hot.  The snapshot itself is never mutated — a re-read through the
     same snapshot hits the loader again, which is correct and rare. *)
  let payload snap iid =
    let inst = find snap iid in
    match String_map.find_opt inst.data_hash snap.snap_state.st_payloads with
    | Some (Resident v) -> v
    | Some Cold | None -> (
      match snap.snap_source.cold_loader with
      | None ->
        store_errorf ~code:`Not_found
          "payload of instance %d is not resident" iid
      | Some load -> (
        match load iid with
        | Some v ->
          Ddf_obs.Metrics.incr m_cold_loads;
          promote snap.snap_source inst.data_hash v;
          v
        | None ->
          store_errorf ~code:`Not_found
            "payload of instance %d is neither resident nor cemented" iid))

  let entity_of snap iid = (find snap iid).entity
  let meta_of snap iid = (find snap iid).meta
  let hash_of snap iid = (find snap iid).data_hash

  let instance_count snap = Int_map.cardinal snap.snap_state.st_instances

  let physical_count snap = snap.snap_state.st_phys
  (* instance_count - physical_count = storage saved by sharing; cold
     data counts too *)

  let instances_of_entity snap entity =
    match String_map.find_opt entity snap.snap_state.st_by_entity with
    | Some m -> List.rev (Int_map.fold (fun iid _ acc -> iid :: acc) m [])
    | None -> []

  (* Ascending-iid fold over the instance map IS installation order:
     iids are dense and nothing is ever deleted. *)
  let all_instances snap =
    Seq.fold_left
      (fun acc (iid, _) -> iid :: acc)
      []
      (Int_map.to_rev_seq snap.snap_state.st_instances)

  let matches snap filter iid = compile filter (find snap iid)

  (* With an entity filter only those entities' instance maps are
     folded, not the whole instance map.  Entities partition the
     instances, so the per-entity results are disjoint and merging
     them keeps ascending iid order. *)
  let browse snap filter =
    Ddf_obs.Metrics.incr m_browses;
    let st = snap.snap_state in
    let meta_ok = compile_meta filter in
    let matching instances =
      List.rev
        (Int_map.fold
           (fun iid inst acc -> if meta_ok inst.meta then iid :: acc else acc)
           instances [])
    in
    match filter.f_entities with
    | None -> matching st.st_instances
    | Some es ->
      List.fold_left
        (fun acc entity ->
          match String_map.find_opt entity st.st_by_entity with
          | None -> acc
          | Some instances -> List.merge Int.compare (matching instances) acc)
        []
        (List.sort_uniq String.compare es)
end

(* ------------------------------------------------------------------ *)
(* Live-store reads: thin wrappers over a fresh snapshot.  Each call   *)
(* sees the latest committed state; multi-call consistency requires    *)
(* taking an explicit [snapshot].                                      *)
(* ------------------------------------------------------------------ *)

let find_opt store iid = Snapshot.find_opt (snapshot store) iid
let find store iid = Snapshot.find (snapshot store) iid
let mem store iid = Snapshot.mem (snapshot store) iid
let payload_resident store iid = Snapshot.payload_resident (snapshot store) iid
let payload store iid = Snapshot.payload (snapshot store) iid
let entity_of store iid = Snapshot.entity_of (snapshot store) iid
let meta_of store iid = Snapshot.meta_of (snapshot store) iid
let hash_of store iid = Snapshot.hash_of (snapshot store) iid
let instance_count store = Snapshot.instance_count (snapshot store)
let physical_count store = Snapshot.physical_count (snapshot store)

let instances_of_entity store entity =
  Snapshot.instances_of_entity (snapshot store) entity

let all_instances store = Snapshot.all_instances (snapshot store)
let matches store filter iid = Snapshot.matches (snapshot store) filter iid
let browse store filter = Snapshot.browse (snapshot store) filter

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_instance ppf inst =
  Fmt.pf ppf "#%d %s %S by %s @%d" inst.iid inst.entity inst.meta.label
    inst.meta.user inst.meta.created_at

let pp ppf store =
  Fmt.pf ppf "store: %d instances over %d physical objects"
    (instance_count store) (physical_count store)
