type tuple = { site : int; lts : int }

(* Tuples are stored newest-first: [concat] and [bump_own] then touch only
   the list head, making both O(1). The forward representation appended at
   the tail — O(n) per secondary commit, O(n^2) down a propagation chain.
   [len] is cached so comparing unequal-length vectors can drop the longer
   one's excess head without a length walk. *)
type t = { epoch : int; len : int; rev : tuple list }

let initial site = { epoch = 0; len = 1; rev = [ { site; lts = 0 } ] }
let epoch t = t.epoch
let tuples t = List.rev t.rev

(* No validation: callers (and tests) may build ill-formed vectors and probe
   them with [well_formed]. *)
let of_tuples ~epoch tuples = { epoch; len = List.length tuples; rev = List.rev tuples }

(* Forward-lexicographic compare of equal-length vectors stored reversed:
   the earliest tuple decides first, and the earliest tuples are the list
   tails, so recurse before comparing heads. At the first difference the
   *larger* site makes the smaller timestamp (Definition 3.3 reverses the
   site order there); equal sites compare by counter. *)
let rec cmp_rev r1 r2 =
  match (r1, r2) with
  | [], [] -> 0
  | t1 :: rest1, t2 :: rest2 ->
      let c = cmp_rev rest1 rest2 in
      if c <> 0 then c
      else if t1.site <> t2.site then Stdlib.compare t2.site t1.site
      else Stdlib.compare t1.lts t2.lts
  | [], _ :: _ | _ :: _, [] -> assert false (* equal lengths by construction *)

let rec drop n l =
  if n = 0 then l else match l with _ :: rest -> drop (n - 1) rest | [] -> assert false

(* A proper prefix is smaller; the longer vector's excess tuples sit at the
   head of its reversed list, so dropping them leaves the common prefix. *)
let compare a b =
  if a.epoch <> b.epoch then Stdlib.compare a.epoch b.epoch
  else if a.len = b.len then cmp_rev a.rev b.rev
  else if a.len < b.len then
    let c = cmp_rev a.rev (drop (b.len - a.len) b.rev) in
    if c <> 0 then c else -1
  else
    let c = cmp_rev (drop (a.len - b.len) a.rev) b.rev in
    if c <> 0 then c else 1

let equal a b = compare a b = 0

let bump_own t site =
  match t.rev with
  | [] -> invalid_arg "Timestamp.bump_own: no tuple for site"
  | last :: rest ->
      if last.site = site then { t with rev = { last with lts = last.lts + 1 } :: rest }
      else invalid_arg "Timestamp.bump_own: site tuple is not last"

let concat t ~site ~lts =
  (match t.rev with
  | tup :: _ when tup.site >= site -> invalid_arg "Timestamp.concat: site order violated"
  | _ -> ());
  { t with len = t.len + 1; rev = { site; lts } :: t.rev }

let with_epoch t e = { t with epoch = e }

let well_formed t =
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a.site > b.site && decreasing rest
    | [ _ ] | [] -> true
  in
  t.rev <> [] && decreasing t.rev
