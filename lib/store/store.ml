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
   promoting cold payloads, so CAS retries are rare.  Installs come in
   batches of rows (a lone [put] is a batch of one): each row is filed
   into a batch built over the state, and the batch is published as one
   new state, so a checkpoint's rows build each column and index once. *)

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

type 'a row = {
  row_entity : string;
  row_hash : string;
  row_meta : meta;
  row_payload : 'a option;
}

(* Where an instance's physical datum is kept: the first instance that
   carried its content hash holds it, [Resident] or [Cold] (held only in
   cold storage: evicted, or restored from a checkpoint that references
   it), and every later instance of that hash [Shares] it. *)
type 'a datum = Resident of 'a | Cold | Shares of iid

(* The immutable hot state: everything a read needs, in persistent
   structures.  Iids are dense and ascending from 1 (nothing is ever
   deleted), so the instances are a [Dense] column indexed by iid - 1:
   its length is the instance count and the next iid is one past it,
   and its ascending order is installation order. *)
type 'a state = {
  st_instances : 'a instance Dense.t;
  st_data : 'a datum Dense.t;       (* per instance, by iid - 1 *)
  st_by_entity : 'a instance Dense.t String_map.t;
  (* each entity's instances, ascending by iid: [st_instances] split by
     entity, kept in step by installs and [annotate].  An instance never
     changes entity, so a bucket only grows *)
  st_by_keyword : keyword_iids String_map.t;
  (* the iids of each keyword's instances, kept in step by installs
     and [annotate]; a keyword no instance carries has no entry *)
  st_phys : int;                    (* the instances that hold a datum *)
}

(* The installs' index of content hashes: an open-addressing table of
   the iids that hold a datum (0 is a free slot), each standing for its
   instance's hash and probed linearly from that hash's home slot, at
   most half full.  Dedup looks a hash up here; only installs read and
   write it, on the writer's side, so no read needs an index by hash.
   An entry counts only while its iid is installed, holds a datum and
   carries the hash, so the entries of a batch that raised before it
   was published count for nothing. *)
type known = { mutable slots : int array; mutable used : int }

type 'a t = {
  state : 'a state Atomic.t;
  known : known;
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
    st_data = Dense.empty;
    st_by_entity = String_map.empty;
    st_by_keyword = String_map.empty;
    st_phys = 0;
  }

let create () =
  {
    state = Atomic.make empty_state;
    known = { slots = Array.make 64 0; used = 0 };
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

(* The instance holding [iid]'s datum, and the datum. *)
let holder st iid =
  match Dense.get st.st_data (iid - 1) with Shares h -> h | Resident _ | Cold -> iid

let resident st iid =
  match Dense.get st.st_data (holder st iid - 1) with
  | Resident payload -> Some payload
  | Cold | Shares _ -> None

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

(* A batch of installs over [b_start]: the instance and datum columns
   and each grown entity bucket as transients, the keyword filings
   collected per keyword, newest first.  [finish] publishes them as one
   state. *)
type 'a batch = {
  b_start : 'a state;
  b_instances : 'a instance Dense.transient;
  b_data : 'a datum Dense.transient;
  mutable b_buckets : (string * 'a instance Dense.transient) list;
  mutable b_keywords : iid list ref String_map.t;
  mutable b_phys : int;
}

let batch st =
  { b_start = st; b_instances = Dense.transient st.st_instances;
    b_data = Dense.transient st.st_data; b_buckets = []; b_keywords = String_map.empty;
    b_phys = st.st_phys }

(* The instance of [b] below [iid] that holds [hash]'s datum, if any,
   and the free slot where [hash]'s probe ends. *)
let holder_of known b hash iid =
  let mask = Array.length known.slots - 1 in
  let rec probe i =
    match known.slots.(i) with
    | 0 -> Error i
    | h ->
      if h < iid
         && String.equal (Dense.t_get b.b_instances (h - 1)).data_hash hash
         && (match Dense.t_get b.b_data (h - 1) with
            | Resident _ | Cold -> true
            | Shares _ -> false)
      then Ok h
      else probe ((i + 1) land mask)
  in
  probe (Hashtbl.hash hash land mask)

(* Enter [iid], an instance of [b] holding its datum, at [slot],
   doubling the table (every entry rehashed by its instance's hash) once
   it is half full. *)
let note_holder known b iid slot =
  known.slots.(slot) <- iid;
  known.used <- known.used + 1;
  if 2 * known.used > Array.length known.slots then begin
    let slots = Array.make (2 * Array.length known.slots) 0 in
    let mask = Array.length slots - 1 in
    let rec free i = if slots.(i) = 0 then i else free ((i + 1) land mask) in
    (* an entry past the instances is a raised batch's: dropped *)
    Array.iter
      (fun h ->
        if h > 0 && h <= Dense.t_length b.b_instances then
          let hash = (Dense.t_get b.b_instances (h - 1)).data_hash in
          slots.(free (Hashtbl.hash hash land mask)) <- h)
      known.slots;
    known.slots <- slots
  end

(* The one install step: file [row] as the next instance of [b].  Its
   datum is a dedup hit when [known] names an instance that holds its
   hash: the row shares that datum (and a resident payload replaces a
   cold one, being in hand).  Otherwise the row holds a datum of its
   own. *)
let install_row known b row =
  let iid = Dense.t_length b.b_instances + 1 in
  let hash = row.row_hash in
  let inst = { iid; entity = row.row_entity; data_hash = hash; meta = row.row_meta } in
  Dense.t_push b.b_instances inst;
  (match holder_of known b hash iid with
  | Ok h ->
    Dense.t_push b.b_data (Shares h);
    (match (row.row_payload, Dense.t_get b.b_data (h - 1)) with
    | Some p, Cold -> Dense.t_set b.b_data (h - 1) (Resident p)
    | (Some _ | None), (Resident _ | Cold | Shares _) -> ())
  | Error slot ->
    b.b_phys <- b.b_phys + 1;
    Dense.t_push b.b_data
      (match row.row_payload with Some p -> Resident p | None -> Cold);
    note_holder known b iid slot);
  (match List.assoc_opt row.row_entity b.b_buckets with
  | Some bucket -> Dense.t_push bucket inst
  | None ->
    let bucket =
      Dense.transient
        (Option.value ~default:Dense.empty
           (String_map.find_opt row.row_entity b.b_start.st_by_entity))
    in
    Dense.t_push bucket inst;
    b.b_buckets <- (row.row_entity, bucket) :: b.b_buckets);
  (* a keyword repeated in one meta files the instance once *)
  List.iter
    (fun k ->
      match String_map.find_opt k b.b_keywords with
      | Some { contents = last :: _ } when last = iid -> ()
      | Some iids -> iids := iid :: !iids
      | None -> b.b_keywords <- String_map.add k (ref [ iid ]) b.b_keywords)
    row.row_meta.keywords

(* [Int_set.map] of an increasing function keeps the shape of the set
   it maps and allocates one node per element.  So the naturals below
   [n] are those below half of it and a copy of them mapped above it
   (the union of two sets that do not interleave copies O(log^2 n)
   nodes), and any [n] ascending iids are the naturals below [n] mapped
   onto them: about 15 words an element at 4,000, where
   [Int_set.of_list] sorts first (45) and adding them one by one copies
   a path each (70). *)
let rec naturals n =
  if n <= 1 then if n = 1 then Int_set.singleton 0 else Int_set.empty
  else
    let half = (n + 1) / 2 in
    let low = naturals half in
    let rest, _, _ = Int_set.split (n - half) low in
    Int_set.union low (Int_set.map (fun i -> i + half) rest)

(* The set of the [n] distinct iids of [newest_first]. *)
let of_ascending n newest_first =
  let iids = Array.make n 0 in
  List.iteri (fun k iid -> iids.(n - 1 - k) <- iid) newest_first;
  Int_set.map (fun i -> iids.(i)) (naturals n)

(* File a batch's new iids under one keyword: they are above every iid
   already filed. *)
let file_keyword k filed index =
  let newest_first = !filed in
  let n = List.length newest_first in
  let ki =
    match String_map.find_opt k index with
    | None -> { count = n; iids = of_ascending n newest_first }
    | Some ki when n = 1 ->
      { count = ki.count + 1; iids = Int_set.add (List.hd newest_first) ki.iids }
    | Some ki ->
      { count = ki.count + n; iids = Int_set.union ki.iids (of_ascending n newest_first) }
  in
  String_map.add k ki index

let finish b =
  let st = b.b_start in
  { st_instances = Dense.freeze b.b_instances;
    st_data = Dense.freeze b.b_data;
    st_by_entity =
      List.fold_left
        (fun m (entity, bucket) -> String_map.add entity (Dense.freeze bucket) m)
        st.st_by_entity b.b_buckets;
    st_by_keyword = String_map.fold file_keyword b.b_keywords st.st_by_keyword;
    st_phys = b.b_phys }

(* Install [rows] as one batch, counting the puts and dedup hits, and
   show the observer each resident row.  Returns the first row's iid. *)
let install store rows =
  let before, after =
    update store (fun st ->
        let b = batch st in
        List.iter (install_row store.known b) rows;
        let next = finish b in
        (next, (st, next)))
  in
  let n = List.length rows in
  let dedups = n - (after.st_phys - before.st_phys) in
  Ddf_obs.Metrics.incr ~by:n m_puts;
  if dedups > 0 then Ddf_obs.Metrics.incr ~by:dedups m_dedup;
  let first = next_iid before in
  let rec show iid = function
    | [] -> ()
    | { row_payload = Some p; _ } :: rest ->
      notify store (Put (Dense.get after.st_instances (iid - 1), p));
      show (iid + 1) rest
    | { row_payload = None; _ } :: rest -> show (iid + 1) rest
  in
  if Option.is_some store.observer then show first rows;
  first

let put_rows store rows = ignore (install store rows)

let put store ~entity ~hash ~meta payload =
  install store
    [ { row_entity = entity; row_hash = hash; row_meta = meta; row_payload = Some payload } ]

(* Where [iid] sits in its entity's bucket: a binary search, the
   bucket being ascending by iid. *)
let bucket_index bucket iid =
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    let at = (Dense.get bucket mid).iid in
    if at = iid then mid else if at < iid then search (mid + 1) hi else search lo mid
  in
  search 0 (Dense.length bucket)

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
                  (Option.map (fun bucket ->
                       Dense.set bucket (bucket_index bucket iid) inst))
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
        | Some _ -> (
          let h = holder st iid in
          match Dense.get st.st_data (h - 1) with
          | Resident _ -> ({ st with st_data = Dense.set st.st_data (h - 1) Cold }, true)
          | Cold | Shares _ -> (st, false)))
  in
  if dropped then Ddf_obs.Metrics.incr m_evictions;
  dropped

(* Promote a cold-loaded payload into the *live* state so later readers
   stay hot.  Runs on the read path, possibly from a reader domain: a
   plain CAS loop against the owning handle. *)
let promote store iid payload =
  update store (fun st ->
      let h = holder st iid in
      match Dense.get st.st_data (h - 1) with
      | Resident _ -> (st, ())
      | Cold | Shares _ ->
        ({ st with st_data = Dense.set st.st_data (h - 1) (Resident payload) }, ()))

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

  let tick snap = next_iid snap.snap_state
  let find_opt snap iid = instance snap.snap_state iid

  let find snap iid =
    let instances = snap.snap_state.st_instances in
    if iid >= 1 && iid <= Dense.length instances then
      Dense.get instances (iid - 1)
    else store_errorf ~code:`Not_found "no instance %d" iid

  let mem snap iid = iid >= 1 && iid <= Dense.length snap.snap_state.st_instances

  let payload_resident snap iid =
    ignore (find snap iid);
    Option.is_some (resident snap.snap_state iid)

  (* Hot path first: a resident payload is a column read or two.  On a miss,
     fall through to cold storage (if wired) and promote the reloaded
     payload back into the live state so later snapshots stay hot.  The snapshot itself is never mutated — a re-read through the
     same snapshot hits the loader again, which is correct and rare. *)
  let payload snap iid =
    ignore (find snap iid);
    match resident snap.snap_state iid with
    | Some v -> v
    | None -> (
      match snap.snap_source.cold_loader with
      | None ->
        store_errorf ~code:`Not_found
          "payload of instance %d is not resident" iid
      | Some load -> (
        match load iid with
        | Some v ->
          Ddf_obs.Metrics.incr m_cold_loads;
          promote snap.snap_source iid v;
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
    | Some bucket -> List.rev (Dense.fold (fun acc inst -> inst.iid :: acc) [] bucket)
    | None -> []

  (* Iids are dense, so the installed ones are 1 .. count, in
     installation order. *)
  let all_instances snap = List.init (instance_count snap) succ

  let matches snap filter iid = compile filter (find snap iid)

  (* Whether the filter's entities hold fewer than [n] instances: one
     bucket length each. *)
  let entities_below st filter n =
    match filter.f_entities with
    | None -> false
    | Some es ->
      List.fold_left
        (fun acc e ->
          match String_map.find_opt e st.st_by_entity with
          | Some bucket -> acc + Dense.length bucket
          | None -> acc)
        0 (List.sort_uniq String.compare es)
      < n

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
     each.  The entities' are folded from their buckets; entities
     partition the instances, so the per-entity results are disjoint
     and merging them keeps ascending iid order.  With neither a
     keyword nor an entity filter, the whole instance column is
     folded. *)
  let browse snap filter =
    Ddf_obs.Metrics.incr m_browses;
    let st = snap.snap_state in
    let scan () =
      let meta_ok = compile_meta filter in
      let matching bucket =
        List.rev
          (Dense.fold
             (fun acc inst -> if meta_ok inst.meta then inst.iid :: acc else acc)
             [] bucket)
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
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp ppf store =
  let snap = snapshot store in
  Fmt.pf ppf "store: %d instances over %d physical objects"
    (Snapshot.instance_count snap) (Snapshot.physical_count snap)
