module Rng = Repdb_sim.Rng
module Txn = Repdb_txn.Txn

type t = {
  rng : Rng.t;
  params : Params.t;
  mutable readable : int array array;
  mutable writable : int array array;
  (* Per-site cumulative Zipf weight tables over each pool, built lazily on
     first use (only when [zipf_theta > 0]) and invalidated by [refresh]:
     the pools change with the placement, so rank -> item does too. *)
  mutable zipf_read : float array option array;
  mutable zipf_write : float array option array;
}

(* The pools are the placement's own precomputed per-site slices (read-only
   by contract), so refreshing after a reconfiguration copies pointers, not
   item lists. *)
let pools (params : Params.t) placement =
  let readable = Array.init params.n_sites (fun site -> Placement.placed_at placement site) in
  let writable = Array.init params.n_sites (fun site -> Placement.primaries_at placement site) in
  (readable, writable)

let create rng (params : Params.t) placement =
  let readable, writable = pools params placement in
  {
    rng;
    params;
    readable;
    writable;
    zipf_read = Array.make params.n_sites None;
    zipf_write = Array.make params.n_sites None;
  }

let refresh t placement =
  let readable, writable = pools t.params placement in
  t.readable <- readable;
  t.writable <- writable;
  Array.fill t.zipf_read 0 (Array.length t.zipf_read) None;
  Array.fill t.zipf_write 0 (Array.length t.zipf_write) None

(* Cumulative weights 1/(rank+1)^theta over a pool; item ids are sorted, so
   rank 0 — the smallest id in the pool — is the hottest key, stable across
   protocols and runs. *)
let zipf_table theta pool =
  let n = Array.length pool in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for rank = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (rank + 1)) theta);
    cum.(rank) <- !acc
  done;
  cum

let zipf_pick rng cum pool =
  let n = Array.length cum in
  let u = Rng.float rng *. cum.(n - 1) in
  (* First rank whose cumulative weight covers the draw. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  pool.(!lo)

let gen_with t rng ~site =
  let p = t.params in
  let readable = t.readable.(site) and writable = t.writable.(site) in
  if Array.length readable = 0 then { Txn.origin = site; ops = [] }
  else begin
    let read_only = Rng.bool rng p.read_txn_prob in
    (* Transactions touch distinct items: rereading — and in particular
       writing an item already read, which would force a shared-to-exclusive
       upgrade and make every concurrent pair of such transactions deadlock —
       is resampled away (best effort when the pool is small). *)
    let chosen = Hashtbl.create p.ops_per_txn in
    (* Hotspot skew: with probability [hot_access_prob], draw from the first
       [hot_item_fraction] of the pool (item ids are sorted, so the hot set
       is stable across protocols and runs). *)
    let pick_skewed pool =
      if p.zipf_theta > 0.0 then begin
        let cache = if pool == readable then t.zipf_read else t.zipf_write in
        let cum =
          match cache.(site) with
          | Some cum -> cum
          | None ->
              let cum = zipf_table p.zipf_theta pool in
              cache.(site) <- Some cum;
              cum
        in
        zipf_pick rng cum pool
      end
      else begin
        let n = Array.length pool in
        let hot = max 1 (int_of_float (ceil (p.hot_item_fraction *. float_of_int n))) in
        if p.hot_access_prob > 0.0 && Rng.bool rng p.hot_access_prob then pool.(Rng.int rng hot)
        else Rng.pick rng pool
      end
    in
    let pick_distinct pool =
      let rec go tries =
        let item = pick_skewed pool in
        if (not (Hashtbl.mem chosen item)) || tries >= 20 then begin
          Hashtbl.replace chosen item ();
          item
        end
        else go (tries + 1)
      in
      go 0
    in
    let gen_op () =
      let is_read = read_only || Array.length writable = 0 || Rng.bool rng p.read_op_prob in
      if is_read then Txn.Read (pick_distinct readable) else Txn.Write (pick_distinct writable)
    in
    let ops = List.init p.ops_per_txn (fun _ -> gen_op ()) in
    (* Canonical item order: locks are then acquired ascending, which rules
       out local deadlocks between transactions at the same site (distributed
       deadlocks — PSL remote reads, BackEdge waits — remain possible, as in
       the paper). *)
    let item_of = function Txn.Read i | Txn.Write i -> i in
    let ops = List.sort (fun a b -> compare (item_of a) (item_of b)) ops in
    (* [pick_distinct] is best-effort: with a tiny or heavily skewed pool it
       gives up after 20 tries and returns a duplicate, and a Read + Write of
       the same item would force exactly the shared-to-exclusive upgrade the
       distinct-items rule exists to prevent (two such transactions at one
       site deadlock against each other). Collapse duplicates after the
       canonical sort, a Write absorbing a Read of the same item. *)
    let rec dedup = function
      | a :: b :: rest when item_of a = item_of b ->
          let keep =
            match (a, b) with
            | (Txn.Write _ as w), _ | _, (Txn.Write _ as w) -> w
            | (Txn.Read _ as r), Txn.Read _ -> r
          in
          dedup (keep :: rest)
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    { Txn.origin = site; ops = dedup ops }
  end

let gen t ~site = gen_with t t.rng ~site
