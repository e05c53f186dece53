(* A persistent vector over dense int keys: a radix trie of [width]-wide
   nodes holding elements [0, length - |tail|), plus a tail array
   holding the last at most [width] elements.  [push] copies the tail
   (and, once per [width] pushes, one path of the trie); [get] reads at
   most one array per trie level, no comparison and no hashing.  Every
   version stays valid: updates copy, never write in place.

   [bits] was chosen by measurement, over 4,000 elements (a daemon's
   store): a get takes the same 14 ns at 16 and at 32 wide (both tries
   are three arrays deep there), while the 4,000 pushes allocate 64k
   words at 16 wide and 93k at 32, most of it the tail copy. *)

let bits = 4
let width = 1 lsl bits
let mask = width - 1

type 'a node = Leaf of 'a array | Node of 'a node array

type 'a t = {
  length : int;
  shift : int;        (* the bit offset of the root's child index *)
  root : 'a node;     (* a [Node] at level [shift] *)
  tail : 'a array;
}

let empty = { length = 0; shift = bits; root = Node [||]; tail = [||] }
let length v = v.length
let tail_offset v = v.length - Array.length v.tail

let rec leaf_of node level i =
  match node with
  | Leaf a -> a
  | Node children -> leaf_of children.((i lsr level) land mask) (level - bits) i

let get v i =
  if i < 0 || i >= v.length then invalid_arg "Dense.get";
  let off = tail_offset v in
  if i >= off then v.tail.(i - off)
  else (leaf_of v.root v.shift i).(i land mask)

let get_opt v i = if i < 0 || i >= v.length then None else Some (get v i)

let append a x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 n;
  b

let rec path level leaf =
  if level = 0 then Leaf leaf else Node [| path (level - bits) leaf |]

(* File the full [leaf] whose first index is [first] below [node], a
   [Node] at [level] with room for it. *)
let rec push_leaf node level leaf first =
  match node with
  | Leaf _ -> assert false
  | Node children ->
    let sub = (first lsr level) land mask in
    if sub < Array.length children then begin
      let children = Array.copy children in
      children.(sub) <- push_leaf children.(sub) (level - bits) leaf first;
      Node children
    end
    else Node (append children (path (level - bits) leaf))

(* The root and shift with [v]'s full tail filed as a leaf. *)
let file_tail v =
  let first = tail_offset v in
  if first lsr bits = 1 lsl v.shift then
    (Node [| v.root; path v.shift v.tail |], v.shift + bits)
  else (push_leaf v.root v.shift v.tail first, v.shift)

let push v x =
  if Array.length v.tail < width then
    { v with length = v.length + 1; tail = append v.tail x }
  else
    let root, shift = file_tail v in
    { length = v.length + 1; shift; root; tail = [| x |] }

let rec assoc node level i x =
  match node with
  | Leaf a ->
    let a = Array.copy a in
    a.(i land mask) <- x;
    Leaf a
  | Node children ->
    let sub = (i lsr level) land mask in
    let children = Array.copy children in
    children.(sub) <- assoc children.(sub) (level - bits) i x;
    Node children

let rec set ?fill v i x =
  if i < 0 then invalid_arg "Dense.set"
  else if i < v.length then
    let off = tail_offset v in
    if i >= off then begin
      let tail = Array.copy v.tail in
      tail.(i - off) <- x;
      { v with tail }
    end
    else { v with root = assoc v.root v.shift i x }
  else if i = v.length then push v x
  else
    match fill with
    | None -> invalid_arg "Dense.set"
    | Some y -> set ?fill (push v y) i x

let rec iter_node f = function
  | Leaf a -> Array.iter f a
  | Node children -> Array.iter (iter_node f) children

let iteri f v =
  let i = ref 0 in
  let visit x =
    f !i x;
    incr i
  in
  iter_node visit v.root;
  Array.iter visit v.tail

let rec fold_node f acc = function
  | Leaf a -> Array.fold_left f acc a
  | Node children -> Array.fold_left (fold_node f) acc children

let fold f init v = Array.fold_left f (fold_node f init v.root) v.tail

(* The vector of [a.(0 .. n-1)], built bottom-up in one pass: each leaf
   is one [Array.sub], each node one [Array.init], nothing is copied
   twice.  The shape is the one [n] pushes leave: the last 1 to [width]
   elements in the tail, the rest packed left under the lowest root
   that holds them. *)
let of_sub a n =
  if n = 0 then empty
  else
    let tail_len = ((n - 1) land mask) + 1 in
    let trie = n - tail_len in
    let rec lowest shift = if trie > 1 lsl (shift + bits) then lowest (shift + bits) else shift in
    let shift = lowest bits in
    (* the node at [level] whose first index is [lo] *)
    let rec node level lo =
      if level = 0 then Leaf (Array.sub a lo width)
      else
        let span = 1 lsl level in
        let last = min trie (lo + (span lsl bits)) in
        Node (Array.init ((last - lo + span - 1) / span) (fun k ->
            node (level - bits) (lo + (k * span))))
    in
    { length = n; shift; root = node shift 0; tail = Array.sub a trie tail_len }

(* A vector being built: [base] with the elements of [added.(0 ..
   n_added-1)] after it.  Writes below [base]'s length copy a path of
   [base], as [set] does; appends go to the array in place, and
   [freeze] files them once. *)
type 'a transient = {
  mutable base : 'a t;
  mutable added : 'a array;
  mutable n_added : int;
}

let transient v = { base = v; added = [||]; n_added = 0 }
let t_length t = t.base.length + t.n_added

let t_get t i =
  let n = t.base.length in
  if i < n then get t.base i
  else if i - n < t.n_added then t.added.(i - n)
  else invalid_arg "Dense.t_get"

let t_push t x =
  if t.n_added = Array.length t.added then begin
    let grown = Array.make (max 1 (2 * t.n_added)) x in
    Array.blit t.added 0 grown 0 t.n_added;
    t.added <- grown
  end;
  t.added.(t.n_added) <- x;
  t.n_added <- t.n_added + 1

let rec t_set ?fill t i x =
  let n = t.base.length in
  if i < 0 then invalid_arg "Dense.t_set"
  else if i < n then t.base <- set t.base i x
  else if i - n < t.n_added then t.added.(i - n) <- x
  else if i = t_length t then t_push t x
  else
    match fill with
    | None -> invalid_arg "Dense.t_set"
    | Some y ->
      t_push t y;
      t_set ?fill t i x

(* [v] with [a.(0 .. n-1)] pushed: built by [of_sub] from empty, else
   the tail is topped up in one copy and every further [width]
   elements file it as a leaf, one path copy each, where [push] copies
   the tail at every element. *)
let append v a n =
  if v.length = 0 then of_sub a n
  else
    let k = min n (width - Array.length v.tail) in
    let v =
      if k = 0 then v
      else
        let len = Array.length v.tail in
        let tail = Array.make (len + k) a.(0) in
        Array.blit v.tail 0 tail 0 len;
        Array.blit a 0 tail len k;
        { v with length = v.length + k; tail }
    in
    let rec leaves v i =
      if i >= n then v
      else
        let len = min width (n - i) in
        let root, shift = file_tail v in
        leaves { length = v.length + len; shift; root; tail = Array.sub a i len } (i + len)
    in
    leaves v k

let freeze t = if t.n_added = 0 then t.base else append t.base t.added t.n_added
