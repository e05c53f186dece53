(** Pairwise anti-entropy between disconnected workspaces.

    The paper's framework assumes one shared design database; real
    design teams also work offline — a laptop clone on a plane, a site
    database behind a flaky link.  [Sync] reconciles two divergent
    workspace journals without a primary: each side publishes a
    {!digest} of its journal (seqno → frame md5, reusing the checksums
    the frames already carry), the common prefix of the two histories
    is located by comparison, and exactly the missing suffix is pulled
    — in both directions, in bounded batches, resumably.

    Applying a remote suffix is {e semantic re-execution}, not byte
    copy: instance ids are local, so every remote entry is remapped
    through a persisted identity map before it is replayed into the
    local context (and re-journaled by the ordinary observers).  An
    instance's sync identity is its immutable birth key — entity,
    content hash, creating user and logical creation time — so the
    same object arriving over two different routes deduplicates, and
    convergence is multi-hop.

    Divergence is never silently overwritten.  When both workspaces
    derived a version of the same design object, the remote derivation
    is applied as a {e sibling} in the version tree (Fig. 11 already
    represents alternatives) and the branch point is registered as a
    {!Ddf_history.History.conflict}: queryable ([hercules remote
    conflicts]), resolvable by picking a winner ([hercules remote
    resolve]).  Mutable annotations merge as a max-register (largest
    serialized value wins), so label edits converge without conflict.

    Progress is persisted in a [sync.ddf] sidecar next to the wal:
    per-origin applied cursors, the identity map and the conflict map.
    A sync severed mid-round (network fault, crash) resumes from the
    cursor; re-delivered frames deduplicate, so delivery is
    effectively exactly-once.  The wire side rides the sync verbs of
    {!Ddf_wire.Wire.request} ([sync-digest], [sync-frames],
    [sync-ack]); in-process peers sync directly. *)

(** {1 Digests} *)

type digest = {
  g_wsid : string;                  (** stable workspace identity *)
  g_base : int;                     (** seqno folded into the snapshot *)
  g_seq : int;                      (** last journaled seqno *)
  g_fingerprint : string;
      (** canonical identity-independent state digest: equal
          fingerprints mean equal design state, though iids differ *)
  g_cursors : (string * int) list;  (** origin wsid → applied seqno *)
  g_entries : (int * string) list;  (** seqno → frame md5, ascending *)
}

val digest_of : Ddf_journal.Journal.t -> digest

val fingerprint : Ddf_exec.Engine.context -> string
(** The canonical state digest: an md5 over sorted lines describing
    every instance (by birth key and current annotation), every history
    record (with iids replaced by birth keys) and every conflict (as an
    unordered pair, origin and detection time dropped).  Two workspaces
    that have fully synced report equal fingerprints even though their
    iids were assigned in different orders. *)

val common_prefix : digest -> digest -> int
(** The last seqno up to which the two journals agree, compared over
    the window both wals still cover; pulls start after
    [max common cursor].  Clones of one directory share their history
    up to the point of divergence. *)

val cursors : Ddf_journal.Journal.t -> (string * int) list
(** The persisted per-origin applied cursors ([sync.ddf]). *)

(** {1 Applying a remote suffix} *)

val apply_frames :
  Ddf_journal.Journal.t ->
  origin:string ->
  upto:int ->
  (int * string * string) list ->
  Ddf_wire.Wire.sync_stats
(** Apply a batch of [origin]'s frames [(seqno, md5, payload)] to the
    local context — remapping ids, deduplicating, surfacing conflicts
    — then persist the origin cursor at [upto].  Frames at or below
    the current cursor are skipped (resumed batches overlap safely);
    an empty batch just advances the cursor.  The server runs this
    inside a group commit ([Sync_ack] is a mutation).
    @raise Ddf_core.Error.Ddf_error on checksum mismatch, an
    unmappable instance reference, [origin] equal to the local
    workspace id (a clone that kept [wsid.ddf]), or ([`Invalid]) a
    record the local schema's construction rules refuse, which the
    history does not take. *)

(** {1 Peers and the sync driver} *)

type peer
(** One side of a sync: either a journal in this process or a design
    server reached through a {!Ddf_client.Client}. *)

val of_journal : Ddf_journal.Journal.t -> peer

val of_client : Ddf_client.Client.t -> peer
(** A design server reached over the wire, through its sync verbs. *)

type direction = {
  d_from : string;      (** source wsid *)
  d_into : string;      (** destination wsid *)
  d_start : int;        (** seqno the pull started after *)
  d_upto : int;         (** source seqno applied through *)
  d_rounds : int;       (** frame batches transferred *)
  d_pulled : int;       (** frames transferred *)
  d_applied : int;      (** frames whose effects were new *)
  d_skipped : int;      (** frames deduplicated *)
  d_conflicts : int;    (** divergences registered *)
}

type report = {
  rp_into_a : direction;  (** what [a] pulled from [b] *)
  rp_into_b : direction;  (** what [b] pulled from [a] *)
  rp_dry : bool;
}

val pull :
  ?dry_run:bool -> ?batch:int -> src:peer -> dst:peer -> unit -> direction
(** One direction: [dst] pulls [src]'s missing suffix in batches of
    [batch] frames (default 64), each batch applied and its cursor
    persisted before the next is fetched — a severed sync resumes
    where it stopped.  [dry_run] fetches and counts but applies
    nothing.  The ["sync.pull"] fault point fires before each fetch.
    @raise Ddf_core.Error.Ddf_error when the peers share a workspace
    id, or when [src] has compacted away frames [dst] still needs. *)

val run : ?dry_run:bool -> ?batch:int -> a:peer -> b:peer -> unit -> report
(** A full bidirectional session: [a] pulls from [b], then — against
    re-fetched digests, so the first direction's merge results flow
    back — [b] pulls from [a].  Two already-connected workspaces
    converge to equal {!fingerprint}s in at most two [run]s (the
    second delivers only the conflict registrations the first created
    on the later side). *)

val pp_report : Format.formatter -> report -> unit
