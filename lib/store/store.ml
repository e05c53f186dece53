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
module Int_set = Set.Make (Int)

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

(* The iids of one keyword's instances, and how many there are: a
   browse compares the count with its entities' instances to choose
   which of the two to test. *)
type keyword_iids = { count : int; iids : Int_set.t }

type 'a event =
  | Put of 'a instance * 'a
  | Annotated of 'a instance

(* A physical datum is resident, or cold: known by its hash but held
   only in cold storage (evicted, or restored from a checkpoint that
   references it).  Either way it counts for dedup and [physical_count]. *)
type 'a slot = Resident of 'a | Cold

(* The immutable hot state: everything a read needs, in persistent
   structures.  Iids are dense and ascending from 1 (nothing is ever
   deleted), so the instances are a [Dense] column indexed by iid - 1:
   its length is the instance count and the next iid is one past it,
   and its ascending order is installation order. *)
type 'a state = {
  st_instances : 'a instance Dense.t;
  st_payloads : 'a slot String_map.t;   (* content-addressed physical data *)
  st_by_entity : 'a instance Int_map.t String_map.t;
  (* each entity's instances: [st_instances] split by entity, kept in
     step by [install] and [annotate] *)
  st_by_keyword : keyword_iids String_map.t;
  (* the iids of each keyword's instances, likewise kept in step; a
     keyword no instance carries has no entry *)
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
    st_instances = Dense.empty;
    st_payloads = String_map.empty;
    st_by_entity = String_map.empty;
    st_by_keyword = String_map.empty;
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

let next_iid st = Dense.length st.st_instances + 1

(* The instance [iid] names, if installed: one column read. *)
let instance st iid = Dense.get_opt st.st_instances (iid - 1)

let tick store = next_iid (Atomic.get store.state)

let set_observer store f = store.observer <- Some f
let clear_observer store = store.observer <- None

let notify store ev =
  match store.observer with None -> () | Some f -> f ev

let meta ?(user = "designer") ?(label = "") ?(comment = "") ?(keywords = [])
    ~created_at () =
  { user; created_at; label; comment; keywords }

(* File [iid] under each of [keywords]; a repeated keyword files it
   once ([Int_set.add] and [remove] return the set itself when they
   change nothing). *)
let index_keywords iid keywords index =
  List.fold_left
    (fun index k ->
      String_map.update k
        (function
          | None -> Some { count = 1; iids = Int_set.singleton iid }
          | Some ki as some ->
            let iids = Int_set.add iid ki.iids in
            if iids == ki.iids then some
            else Some { count = ki.count + 1; iids })
        index)
    index keywords

(* Take [iid] out of each of [keywords]' sets, dropping sets left
   empty. *)
let unindex_keywords iid keywords index =
  List.fold_left
    (fun index k ->
      String_map.update k
        (function
          | None -> None
          | Some ki as some ->
            let iids = Int_set.remove iid ki.iids in
            if iids == ki.iids then some
            else if Int_set.is_empty iids then None
            else Some { count = ki.count - 1; iids })
        index)
    index keywords

(* Install an instance over [slot], counting the put and any dedup
   hit (its hash already known, resident or cold). *)
let install store ~entity ~hash ~meta slot =
  let inst, dedup =
    update store (fun st ->
        let iid = next_iid st in
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
            st_instances = Dense.push st.st_instances inst;
            st_payloads;
            st_by_entity = String_map.add entity bucket st.st_by_entity;
            st_by_keyword = index_keywords iid meta.keywords st.st_by_keyword;
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
        match instance st iid with
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
          let by_keyword =
            let old = inst.meta.keywords in
            if List.equal String.equal old m.keywords then st.st_by_keyword
            else
              index_keywords iid m.keywords
                (unindex_keywords iid old st.st_by_keyword)
          in
          let inst = { inst with meta = m } in
          ( { st with
              st_instances = Dense.set st.st_instances (iid - 1) inst;
              st_by_entity =
                String_map.update inst.entity
                  (Option.map (Int_map.add iid inst))
                  st.st_by_entity;
              st_by_keyword = by_keyword },
            inst ))
  in
  notify store (Annotated inst)

let set_cold_loader store f = store.cold_loader <- Some f

let evict store iid =
  let dropped =
    update store (fun st ->
        match instance st iid with
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
    (match filter.f_user with None -> true | Some u -> String.equal m.user u)
    && (match filter.f_from with None -> true | Some t -> m.created_at >= t)
    && (match filter.f_to with None -> true | Some t -> m.created_at <= t)
    && List.for_all
         (fun k -> List.exists (String.equal k) m.keywords)
         filter.f_keywords
    && (match needle with
       | None -> true
       | Some ln -> contains_ci m.label ln || contains_ci m.comment ln)

let compile filter =
  let meta_ok = compile_meta filter in
  match filter.f_entities with
  | None -> fun inst -> meta_ok inst.meta
  | Some es ->
    fun inst -> List.exists (String.equal inst.entity) es && meta_ok inst.meta

(* ------------------------------------------------------------------ *)
(* The snapshot read API — every read below sees one frozen state.     *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type 'a t = 'a snapshot

  let source snap = snap.snap_source
  let tick snap = next_iid snap.snap_state
  let find_opt snap iid = instance snap.snap_state iid

  let find snap iid =
    let instances = snap.snap_state.st_instances in
    if iid >= 1 && iid <= Dense.length instances then
      Dense.get instances (iid - 1)
    else store_errorf ~code:`Not_found "no instance %d" iid

  let mem snap iid = iid >= 1 && iid <= Dense.length snap.snap_state.st_instances

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

  let instance_count snap = Dense.length snap.snap_state.st_instances

  let physical_count snap = snap.snap_state.st_phys
  (* instance_count - physical_count = storage saved by sharing; cold
     data counts too *)

  let instances_of_entity snap entity =
    match String_map.find_opt entity snap.snap_state.st_by_entity with
    | Some m -> List.rev (Int_map.fold (fun iid _ acc -> iid :: acc) m [])
    | None -> []

  (* Iids are dense, so the installed ones are 1 .. count, in
     installation order. *)
  let all_instances snap = List.init (instance_count snap) succ

  let matches snap filter iid = compile filter (find snap iid)

  (* Whether the filter's entities hold fewer than [n] instances; counts
     at most [n] of them. *)
  let entities_below st filter n =
    match filter.f_entities with
    | None -> false
    | Some es -> (
      let seen = ref 0 in
      let count _ _ =
        incr seen;
        if !seen >= n then raise_notrace Exit
      in
      match
        List.iter
          (fun e ->
            Option.iter (Int_map.iter count) (String_map.find_opt e st.st_by_entity))
          (List.sort_uniq String.compare es)
      with
      | () -> true
      | exception Exit -> false)

  let check_keyword_index snap =
    let st = snap.snap_state in
    let fail fmt = Printf.ksprintf failwith fmt in
    String_map.iter
      (fun k ki ->
        let n = Int_set.cardinal ki.iids in
        if n = 0 then fail "keyword %S is filed with no iid" k;
        if ki.count <> n then fail "keyword %S counts %d of its %d iids" k ki.count n;
        Int_set.iter
          (fun iid ->
            match instance st iid with
            | None -> fail "keyword %S files iid %d, which is not installed" k iid
            | Some inst ->
              if not (List.exists (String.equal k) inst.meta.keywords) then
                fail "keyword %S files iid %d, which does not carry it" k iid)
          ki.iids)
      st.st_by_keyword;
    Dense.iteri
      (fun i inst ->
        let iid = i + 1 in
        List.iter
          (fun k ->
            match String_map.find_opt k st.st_by_keyword with
            | Some ki when Int_set.mem iid ki.iids -> ()
            | _ -> fail "iid %d carries keyword %S but is not filed under it" iid k)
          inst.meta.keywords)
      st.st_instances

  (* Both the instances carrying the filter's first keyword and those
     of its entities hold every answer; the fewer of them are tested,
     through the whole filter.  The keyword's are tested one iid lookup
     each.  The entities' are folded from their instance maps; entities
     partition the instances, so the per-entity results are disjoint
     and merging them keeps ascending iid order.  With neither a
     keyword nor an entity filter, the whole instance map is folded. *)
  let browse snap filter =
    Ddf_obs.Metrics.incr m_browses;
    let st = snap.snap_state in
    let scan () =
      let meta_ok = compile_meta filter in
      let matching instances =
        List.rev
          (Int_map.fold
             (fun iid inst acc -> if meta_ok inst.meta then iid :: acc else acc)
             instances [])
      in
      match filter.f_entities with
      | None ->
        List.rev
          (Dense.fold
             (fun acc inst -> if meta_ok inst.meta then inst.iid :: acc else acc)
             [] st.st_instances)
      | Some es ->
        List.fold_left
          (fun acc entity ->
            match String_map.find_opt entity st.st_by_entity with
            | None -> acc
            | Some instances -> List.merge Int.compare (matching instances) acc)
          []
          (List.sort_uniq String.compare es)
    in
    match filter.f_keywords with
    | [] -> scan ()
    | k :: _ -> (
      match String_map.find_opt k st.st_by_keyword with
      | None -> []
      | Some ki when entities_below st filter ki.count -> scan ()
      | Some ki ->
        let ok = compile filter in
        List.rev
          (Int_set.fold
             (fun iid acc ->
               if ok (Dense.get st.st_instances (iid - 1)) then iid :: acc
               else acc)
             ki.iids []))
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

let pp ppf store =
  Fmt.pf ppf "store: %d instances over %d physical objects"
    (instance_count store) (physical_count store)
