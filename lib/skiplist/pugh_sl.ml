(** Pugh's concurrent skip list (Table 1 "pugh"; Pugh, "Concurrent
    Maintenance of Skip Lists", 1990).

    Hybrid lock-based: several levels of Pugh lists.  Searches and parses
    are optimistic and store-free; updates take per-level predecessor
    locks one level at a time (never the whole tower at once), and
    removal reverses the victim's forward pointers level by level so
    concurrent traversals standing on it retreat to the predecessor.

    An insert holds the new node's own lock for the whole tower build
    (Pugh's check-the-flag protocol): a remove of the same key
    serializes behind it, so a victim is always linked at every level
    of its tower when its removal starts.  Without this, removal's
    per-level scan can run before an upper level is linked, leaving the
    node behind as a permanently-linked logically-deleted router — and
    [get_lock] livelocks retreating from it forever. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module Lg = Level_gen.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info

  and 'v info = {
    key : int;
    value : 'v option;
    line : Mem.line;
    lock : L.t;
    deleted : bool Mem.r;
    nexts : 'v node Mem.r array;
  }

  type 'v t = { head : 'v info; levels : Lg.t; rof : bool; ssmem : S.t }

  let name = "sl-pugh"

  let mk_info key value height =
    let line = Mem.new_line () in
    {
      key;
      value;
      line;
      lock = L.create line;
      deleted = Mem.make line false;
      nexts = Array.init height (fun _ -> Mem.make line Nil);
    }

  let create ?hint ?(read_only_fail = true) () =
    let max_level = Lg.max_for_hint (Option.value hint ~default:1024) in
    {
      head = mk_info min_int None max_level;
      levels = Lg.create max_level;
      rof = read_only_fail;
      ssmem = S.create ();
    }

  let height t = Array.length t.head.nexts

  let search t k =
    let rec go info lvl =
      if lvl < 0 then None
      else
        match Mem.get info.nexts.(lvl) with
        | Node n when n.key < k ->
            Mem.touch n.line;
            go n lvl
        | Node n when n.key = k && not (Mem.get n.deleted) -> n.value
        | _ -> go info (lvl - 1)
    in
    go t.head (height t - 1)

  (* Optimistic parse for lock hints. *)
  let parse t k =
    let preds = Array.make (height t) t.head in
    let rec go info lvl =
      if lvl < 0 then preds
      else
        match Mem.get info.nexts.(lvl) with
        | Node n when n.key < k ->
            Mem.touch n.line;
            go n lvl
        | _ ->
            preds.(lvl) <- info;
            go info (lvl - 1)
    in
    go t.head (height t - 1)

  (* Pugh's getLock at one level: lock the last live node with key < k,
     re-stabilizing in place.  A locked-but-deleted candidate sends us
     back to the head (its pointers may already be reversed). *)
  let rec get_lock t k lvl start =
    let rec advance info =
      match Mem.get info.nexts.(lvl) with
      | Node n when n.key < k -> advance n
      | _ -> info
    in
    let cand = advance start in
    L.acquire cand.lock;
    if Mem.get cand.deleted then begin
      (* follow the reversed pointer back to a live region instead of
         rescanning from the head (Pugh's retreat); a not-yet-reversed
         forward pointer falls back to the head *)
      let back =
        match Mem.get cand.nexts.(lvl) with
        | Node p when p.key < k -> p
        | _ -> t.head
      in
      L.release cand.lock;
      Mem.emit E.restart;
      get_lock t k lvl back
    end
    else
      match Mem.get cand.nexts.(lvl) with
      | Node n when n.key < k ->
          L.release cand.lock;
          get_lock t k lvl cand
      | _ -> cand

  let insert t k v =
    Mem.emit E.parse;
    let preds = parse t k in
    let quick_present =
      match Mem.get preds.(0).nexts.(0) with
      | Node n when n.key = k -> not (Mem.get n.deleted)
      | _ -> false
    in
    Mem.emit E.parse_end;
    if t.rof && quick_present then false
    else begin
      let h = Lg.next t.levels in
      let x = mk_info k (Some v) h in
      (* Hold x's own lock across the whole tower build: a concurrent
         remove of k serializes behind it (remove locks its victim
         before marking it deleted), so the victim of any removal is
         fully linked — no level can be skipped by the unlink scan and
         left behind as a permanent deleted router.  Lock order stays
         descending (x.key = k, then predecessors with keys < k). *)
      L.acquire x.lock;
      let rec link lvl =
        if lvl >= h then true
        else begin
          let pred = get_lock t k lvl preds.(min lvl (height t - 1)) in
          if lvl = 0 then begin
            match Mem.get pred.nexts.(0) with
            | Node n when n.key = k && not (Mem.get n.deleted) ->
                L.release pred.lock;
                false (* duplicate *)
            | succ ->
                Mem.set x.nexts.(0) succ;
                Mem.set pred.nexts.(0) (Node x);
                L.release pred.lock;
                link 1
          end
          else begin
            Mem.set x.nexts.(lvl) (Mem.get pred.nexts.(lvl));
            Mem.set pred.nexts.(lvl) (Node x);
            L.release pred.lock;
            link (lvl + 1)
          end
        end
      in
      let linked = link 0 in
      L.release x.lock;
      linked
    end

  (* Find-and-lock the predecessor of [x] at [lvl], starting from a
     parse hint (falling back to the head when the hint went stale);
     None if x is not linked at this level. *)
  let rec pred_of_victim t x lvl start =
    let rec find info =
      match Mem.get info.nexts.(lvl) with
      | Node n when n == x -> Some info
      | Node n when n.key <= x.key && not (n == x) ->
          Mem.touch n.line;
          find n
      | _ -> None
    in
    match find start with
    | None -> if start == t.head then None else pred_of_victim t x lvl t.head
    | Some pred ->
        L.acquire pred.lock;
        if Mem.get pred.deleted then begin
          L.release pred.lock;
          Mem.emit E.restart;
          pred_of_victim t x lvl t.head
        end
        else
          (match Mem.get pred.nexts.(lvl) with
          | Node n when n == x -> Some pred
          | _ ->
              L.release pred.lock;
              Mem.emit E.restart;
              pred_of_victim t x lvl t.head)

  let remove t k =
    Mem.emit E.parse;
    let preds = parse t k in
    (* Re-advance from the parse hint rather than trusting one re-read:
       preds.(0) may since have been removed — its level-0 pointer then
       points *backward* (reversal) — or a smaller key may have been
       inserted in the gap.  Either way a single read of
       preds.(0).nexts.(0) can return a key < k node and miss a live
       victim; walking re-converges onto the current list. *)
    let rec candidate info =
      match Mem.get info.nexts.(0) with
      | Node n when n.key < k ->
          Mem.touch n.line;
          candidate n
      | c -> c
    in
    let cand = candidate preds.(0) in
    let quick_absent =
      match cand with Node n when n.key = k -> Mem.get n.deleted | _ -> true
    in
    Mem.emit E.parse_end;
    if t.rof && quick_absent then false
    else begin
      (* lock the victim first (larger key), then predecessors (smaller
         keys): every operation acquires locks in descending key order, so
         no deadlock is possible.  The candidate comes straight from the
         tower parse (no linear level-0 rescan). *)
      match cand with
      | Node x when x.key = k ->
          L.acquire x.lock;
          if Mem.get x.deleted then begin
            (* the k we saw is gone; a fresh k may exist, but there was an
               instant with no live k, which linearizes this failure *)
            L.release x.lock;
            false
          end
          else begin
            Mem.set x.deleted true;
            (* unlink top-down with pointer reversal, starting each level
               scan from the optimistic parse hints *)
            for lvl = Array.length x.nexts - 1 downto 0 do
              let hint = if lvl < Array.length preds then preds.(lvl) else t.head in
              match pred_of_victim t x lvl hint with
              | None -> () (* never linked at this level *)
              | Some pred ->
                  let succ = Mem.get x.nexts.(lvl) in
                  Mem.set x.nexts.(lvl) (Node pred);
                  Mem.set pred.nexts.(lvl) succ;
                  L.release pred.lock
            done;
            L.release x.lock;
            S.free t.ssmem x;
            true
          end
      | _ -> false
    end

  let size t =
    let rec go info acc steps =
      if steps > 50_000_000 then acc
      else
        match Mem.get info.nexts.(0) with
        | Nil -> acc
        | Node n -> go n (if Mem.get n.deleted then acc else acc + 1) (steps + 1)
    in
    go t.head 0 0

  let validate t =
    let rec go info last steps =
      if steps > 10_000_000 then Error "level-0 traversal does not terminate"
      else
        match Mem.get info.nexts.(0) with
        | Nil -> Ok ()
        | Node n ->
            if Mem.get n.deleted then Error "deleted node still linked at level 0"
            else if n.key <= last then Error "keys not strictly increasing"
            else go n n.key (steps + 1)
    in
    go t.head min_int 0

  let op_done t = S.quiesce t.ssmem
end
