(** PathCAS external BST (Brown et al., PPoPP 2022, arXiv 2212.09851)
    over {!Ascy_mem.Memory.S.kcas} — the {!Seq_ext_bst} shape made
    concurrent by per-router version stamps and one k-CAS per update.

    Routers carry a version stamp; leaves are immutable (no cells).  The
    seek reads each router's stamp {e before} following its child
    pointer, so a stamp unchanged at commit time revalidates the pointer
    read after it.  Updates then commit with a single k-CAS that bumps
    the stamps of the routers the update structurally depends on and
    swings one child pointer:

    Stamps carry the same parity discipline as {!Pathcas_ll}: a router
    that survives an update has its stamp bumped by [+2] (stays even),
    the splice sets the unlinked router's stamp odd ([+1]) — a permanent
    tombstone, routers are never re-linked — and the seek restarts when
    it reads an odd stamp.  An even recorded stamp therefore belongs to
    a router that was still reachable when the stamp was read, closing
    the window between following a child pointer and reading the child's
    stamp (otherwise the recorded stamp could be the post-splice value
    and the commit would validate an already-unlinked router).

    - insert at leaf under parent [p]:
      [kcas {p.ver +2; p.child: leaf -> Router{leaf', leaf}}];
    - remove leaf under [p] (grandparent [g]): splice [p] out —
      [kcas {g.ver +2; p.ver +1; g.child: p -> sibling}].  The odd
      [p.ver] tombstones [p] and invalidates any update whose recorded
      parent (or whose sibling read) was [p]; the [g.ver] bump
      invalidates updates about to splice {e around} [g].

    A spliced-out subtree (the sibling) moves wholesale under [g];
    operations already below it are unaffected — its internal routers
    and their stamps are untouched, the standard external-BST argument.
    Searches are pure traversals (ASCY1): each child pointer is read
    from a router that was reachable when its parent's pointer was read,
    and splices replace one reachable pointer by another atomically. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node =
    | Leaf of { key : int; value : 'v option; line : Mem.line }
    | Router of 'v router

  and 'v router = {
    key : int;
    line : Mem.line;
    ver : int Mem.r;
    left : 'v node Mem.r;
    right : 'v node Mem.r;
  }

  (* Sentinel keys: all user keys are smaller (Set_intf caps user keys at
     max_int - 2). *)
  let inf1 = max_int - 1
  let inf2 = max_int

  type 'v t = { root : 'v router; rof : bool; ssmem : S.t }

  let name = "bst-pathcas"

  let mk_leaf key value =
    let line = Mem.new_line () in
    Leaf { key; value; line }

  let mk_router key left right =
    let line = Mem.new_line () in
    {
      key;
      line;
      ver = Mem.make line 0;
      left = Mem.make line left;
      right = Mem.make line right;
    }

  let create ?hint:_ ?(read_only_fail = true) () =
    (* natarajan-style initialization: R(inf2) -> S(inf1) + leaf(inf2);
       S -> leaf(inf1) + leaf(inf2); user data grows under S.left, so a
       user key's parent router is never the root and always has a
       router grandparent *)
    let s = mk_router inf1 (mk_leaf inf1 None) (mk_leaf inf2 None) in
    {
      root = mk_router inf2 (Router s) (mk_leaf inf2 None);
      rof = read_only_fail;
      ssmem = S.create ();
    }

  let go_left r k = k < r.key

  type 'v found = {
    g : 'v router;  (** grandparent of the leaf *)
    gv : int;  (** [g.ver], read before [gcell] *)
    gcell : 'v node Mem.r;  (** [g]'s child cell that held [Router p] *)
    pnode : 'v node;  (** the witnessed [Router p] value in [gcell] *)
    p : 'v router;
    pv : int;  (** [p.ver], read before [cell] *)
    cell : 'v node Mem.r;  (** [p]'s child cell that held the leaf *)
    lf : 'v node;  (** the witnessed leaf *)
  }

  (* Version-stamped seek: at every level the router's stamp is read
     before its child pointer, so the stamps recorded in the result
     vouch for the pointers; an odd stamp (the router was spliced out
     between our reading the pointer to it and its stamp) abandons the
     attempt and starts a fresh one, with the same
     parse_end/restart/parse event shape as a failed commit — the seek
     learned the commit cannot succeed, one step earlier than the k-CAS
     would.  Each restart witnesses a fresh splice, so restarts
     terminate.  The initial g-slots are placeholders; user keys are at
     depth >= 2 (see [create]), so they are always overwritten before
     the leaf is reached. *)
  let seek t k =
    let rec restart () =
      Mem.emit E.parse;
      (* the root is never spliced out, so its stamp is always even *)
      let rv = Mem.get t.root.ver in
      match
        go t.root rv
          (if go_left t.root k then t.root.left else t.root.right)
          (Router t.root) t.root rv
      with
      | Some s -> s
      | None ->
          Mem.emit E.parse_end;
          Mem.emit E.restart;
          restart ()
    and go g gv gcell pnode p pv =
      let cell = if go_left p k then p.left else p.right in
      match Mem.get cell with
      | Leaf l as lf ->
          Mem.touch l.line;
          Some { g; gv; gcell; pnode; p; pv; cell; lf }
      | Router r as nd ->
          Mem.touch r.line;
          let rv = Mem.get r.ver in
          if rv land 1 = 1 then None else go p pv cell nd r rv
    in
    restart ()

  let search t k =
    let rec go nd =
      match nd with
      | Leaf l -> if l.key = k then l.value else None
      | Router r ->
          Mem.touch r.line;
          go (Mem.get (if go_left r k then r.left else r.right))
    in
    go (Router t.root)

  (* read_only_fail = false: re-validate the stamp justifying the
     failure with a 1-CAS before reporting it. *)
  let validate_failure ver v attempt =
    if Mem.kcas [ Mem.kcas_op ver ~expected:v ~desired:v ] then false
    else begin
      Mem.emit E.cas_fail;
      Mem.emit E.restart;
      attempt ()
    end

  let insert t k v =
    let rec attempt () =
      let s = seek t k in
      Mem.emit E.parse_end;
      match s.lf with
      | Leaf l when l.key = k ->
          if t.rof then false else validate_failure s.p.ver s.pv attempt
      | Leaf l ->
          let nl = mk_leaf k (Some v) in
          let r = if k < l.key then mk_router l.key nl s.lf else mk_router k s.lf nl in
          if
            Mem.kcas
              [
                Mem.kcas_op s.p.ver ~expected:s.pv ~desired:(s.pv + 2);
                Mem.kcas_op s.cell ~expected:s.lf ~desired:(Router r);
              ]
          then true
          else begin
            Mem.emit E.cas_fail;
            Mem.emit E.restart;
            attempt ()
          end
      | Router _ -> assert false
    in
    attempt ()

  let remove t k =
    let rec attempt () =
      let s = seek t k in
      Mem.emit E.parse_end;
      match s.lf with
      | Leaf l when l.key = k ->
          (* the sibling read is vouched for by [p.ver] at commit *)
          let sibling = Mem.get (if go_left s.p k then s.p.right else s.p.left) in
          if
            Mem.kcas
              [
                Mem.kcas_op s.g.ver ~expected:s.gv ~desired:(s.gv + 2);
                Mem.kcas_op s.p.ver ~expected:s.pv ~desired:(s.pv + 1);
                Mem.kcas_op s.gcell ~expected:s.pnode ~desired:sibling;
              ]
          then begin
            S.free t.ssmem s.pnode;
            S.free t.ssmem s.lf;
            true
          end
          else begin
            Mem.emit E.cas_fail;
            Mem.emit E.restart;
            attempt ()
          end
      | _ -> if t.rof then false else validate_failure s.p.ver s.pv attempt
    in
    attempt ()

  let size t =
    let rec go nd =
      match nd with
      | Leaf l -> if l.value = None then 0 else 1
      | Router r -> go (Mem.get r.left) + go (Mem.get r.right)
    in
    go (Router t.root)

  let validate t =
    let rec go nd lo hi =
      match nd with
      | Leaf l ->
          if l.value <> None && not (l.key >= lo && l.key < hi) then
            Error "leaf key outside router bounds"
          else Ok ()
      | Router r ->
          if not (r.key > lo && r.key <= hi) then Error "router key outside bounds"
          else (
            match go (Mem.get r.left) lo r.key with
            | Error _ as e -> e
            | Ok () -> go (Mem.get r.right) r.key hi)
    in
    go (Router t.root) min_int max_int

  let op_done t = S.quiesce t.ssmem
end
