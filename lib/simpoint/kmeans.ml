type result = {
  k : int;
  assignment : int array;
  centroids : float array array;
  sizes : int array;
  distortion : float;
}

let sq_distance a b =
  let d = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i -. Array.unsafe_get b i in
    d := !d +. (x *. x)
  done;
  !d

(* Points and centroids live row-major in flat float arrays ([i*dim ..
   i*dim+dim-1] is row [i]): one allocation, no per-row indirection, and
   the Lloyd inner loops walk memory sequentially.

   All distance computations below accumulate coordinate squares in
   index order with the exact operation sequence of {!sq_distance}, so
   every produced value is bit-identical to the nested-array code. *)

let flatten rows dim =
  let n = Array.length rows in
  let flat = Array.make (if n * dim = 0 then 1 else n * dim) 0.0 in
  for i = 0 to n - 1 do
    Array.blit rows.(i) 0 flat (i * dim) dim
  done;
  flat

let[@inline] sqd_flat a ao b bo dim =
  let d = ref 0.0 in
  for x = 0 to dim - 1 do
    let v = Array.unsafe_get a (ao + x) -. Array.unsafe_get b (bo + x) in
    d := !d +. (v *. v)
  done;
  !d

(* Every nearest-centroid search below reproduces the exhaustive scan:
   candidates in index order under a strict [<] update, so the nearest
   centroid wins, ties keep the lowest index, and the distance is
   {!sqd_flat}'s.  The searches skip candidates by triangle-inequality
   bounds, with [margin] as relative slack on every such comparison.
   The compared squared distances are sums of [dim] rounded squares,
   within about [dim * 2^-52] of their true values; 1e-6 swamps that,
   so a skipped candidate is *strictly* farther than the running best
   in computed arithmetic too — it can neither win the strict [<]
   update nor tie it. *)
let margin = 1.000001

(* [thr.(a*k + j)] is the squared distance between centroids [a] and
   [j] divided by [4 * margin].  A point whose best candidate so far is
   [a], at squared distance [bd < thr], cannot be closer to [j]: by the
   triangle inequality d(p, c_j) >= d(c_a, c_j) - d(p, c_a) > d(p, c_a). *)
let pair_thresholds cents k dim =
  let thr = Array.make (k * k) 0.0 in
  for a = 0 to k - 1 do
    for j = a + 1 to k - 1 do
      let t = sqd_flat cents (a * dim) cents (j * dim) dim *. 0.25 /. margin in
      thr.((a * k) + j) <- t;
      thr.((j * k) + a) <- t
    done
  done;
  thr

(* Each point measures its predecessor's winner first (consecutive
   slices usually share a phase), then every other centroid in index
   order unless the pair threshold rules it out.  The result is the
   exhaustive scan's: a skipped candidate is strictly above the running
   best, hence above the minimum, and the update keeps the lowest index
   among the computed equal-minimum candidates. *)
let assign ?jobs ~centroids points =
  let n = Array.length points in
  if n = 0 then [||]
  else begin
    let k = Array.length centroids in
    if k = 0 then Array.make n 0
    else begin
      let dim = Array.length points.(0) in
      let pts = flatten points dim in
      let cents = flatten centroids dim in
      let thr = pair_thresholds cents k dim in
      let out = Array.make n 0 in
      Sp_util.Pool.parallel_for ?jobs ~n (fun lo hi ->
          let guess = ref 0 in
          for i = lo to hi - 1 do
            let po = i * dim in
            let g = !guess in
            let best = ref g in
            let bd = ref (sqd_flat pts po cents (g * dim) dim) in
            for j = 0 to k - 1 do
              if j <> g && not (Array.unsafe_get thr ((!best * k) + j) > !bd)
              then begin
                let d = sqd_flat pts po cents (j * dim) dim in
                if d < !bd || (d = !bd && j < !best) then begin
                  bd := d;
                  best := j
                end
              end
            done;
            out.(i) <- !best;
            guess := !best
          done);
      out
    end
  end

(* Smallest [i] with [prefix.(i) >= target], or [n-1] when the target
   overshoots the last entry — exactly the index the linear
   accumulate-and-compare scan picks, because [prefix] holds that scan's
   accumulator values (same summation order) and they are non-decreasing
   (float addition of non-negative weights is monotone), which is what
   makes the binary search sound. *)
let weighted_pick prefix target =
  let n = Array.length prefix in
  if n = 0 then invalid_arg "Kmeans.weighted_pick: empty prefix";
  if prefix.(n - 1) < target then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: prefix.(hi) >= target, and prefix.(lo-1) < target *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if prefix.(mid) >= target then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* k-means++ seeding: first centroid uniform, then each next centroid
   drawn with probability proportional to squared distance to the
   nearest chosen centroid.  [total] tracks the sum of [best_d]
   incrementally: entries only ever shrink when a new centroid gets
   closer, so the running total is adjusted by each delta instead of
   re-summing the whole array per centroid.  The draw itself builds the
   prefix-sum of [best_d] (same accumulation order as the old linear
   scan) and binary-searches it, selecting the same index for the same
   RNG draw.

   The seeding leaves the first Lloyd round its answer.  Centroids are
   added in index order and a point moves to a new one only on a strict
   [<], so [best_j]/[best_d] end up as exactly the exhaustive scan's
   argmin and distance over the seeded centroids.  A point whose
   nearest centroid [a] is closer than half the way to the new centroid
   (the {!pair_thresholds} test) skips it: it could not take the strict
   update, so neither the draw, [total] nor [best_d] changes.  [lower]
   ends as a lower bound on the point's distance (unsquared) to every
   centroid but its nearest: the smallest of the measured distances and,
   for skipped centroids, of the triangle bounds d(c_a, c_j) - d(p, c_a). *)
let seed_plus_plus rng k pts n dim ~best_j ~best_d ~lower =
  let cents = Array.make (k * dim) 0.0 in
  let first = Sp_util.Rng.int rng n in
  Array.blit pts (first * dim) cents 0 dim;
  let total = ref 0.0 in
  (* [root.(i)] = sqrt best_d.(i), refreshed whenever it shrinks *)
  let root = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let d = sqd_flat pts (i * dim) cents 0 dim in
    total := !total +. d;
    best_d.(i) <- d;
    root.(i) <- sqrt d
  done;
  Array.fill best_j 0 n 0;
  (* squared until the end *)
  Array.fill lower 0 n infinity;
  let prefix = Array.make n 0.0 in
  let thr = Array.make k 0.0 and gap = Array.make k 0.0 in
  for j = 1 to k - 1 do
    (* the running total can drift a hair below zero once all
       distances collapse; treat that as exhausted *)
    let mass = Float.max 0.0 !total in
    let chosen =
      if mass <= 0.0 then Sp_util.Rng.int rng n
      else begin
        let target = Sp_util.Rng.float rng mass in
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. best_d.(i);
          prefix.(i) <- !acc
        done;
        weighted_pick prefix target
      end
    in
    Array.blit pts (chosen * dim) cents (j * dim) dim;
    let cj = j * dim in
    for a = 0 to j - 1 do
      let cc = sqd_flat cents (a * dim) cents cj dim in
      thr.(a) <- cc *. 0.25 /. margin;
      gap.(a) <- sqrt cc
    done;
    for i = 0 to n - 1 do
      let a = Array.unsafe_get best_j i in
      let bd = Array.unsafe_get best_d i in
      if Array.unsafe_get thr a > bd then begin
        let g = Array.unsafe_get gap a -. Array.unsafe_get root i in
        let lb = g *. g in
        if lb < Array.unsafe_get lower i then Array.unsafe_set lower i lb
      end
      else begin
        let d = sqd_flat pts (i * dim) cents cj dim in
        if d < bd then begin
          total := !total -. (bd -. d);
          (* the old nearest is now the runner-up; every other entry
             of [lower] is at least its distance *)
          Array.unsafe_set lower i bd;
          Array.unsafe_set best_d i d;
          Array.unsafe_set best_j i j;
          Array.unsafe_set root i (sqrt d)
        end
        else if d < Array.unsafe_get lower i then Array.unsafe_set lower i d
      end
    done
  done;
  for i = 0 to n - 1 do
    lower.(i) <- sqrt lower.(i)
  done;
  cents

(* Drift factor: each per-round centroid displacement is inflated by
   1e-7 before it loosens a bound, which over-estimates the true drift
   by far more than the rounding in the sqrt and the sums. *)
let inflate = 1.0000001

let fit ?(max_iters = 50) ?(seed = 42) ?(jobs = 1) ~k points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.fit: no points";
  if k < 1 then invalid_arg "Kmeans.fit: k < 1";
  let k = min k n in
  let dim = Array.length points.(0) in
  let pts = flatten points dim in
  let rng = Sp_util.Rng.create seed in
  (* Search state (invariants in DESIGN.md §5g), per point: its
     nearest centroid [best_j] and exact squared distance [best_d] from
     the last search, and [lower], a lower bound on its distance
     (unsquared) to every other centroid.  The seeding fills all three. *)
  let best_j = Array.make n 0 in
  let best_d = Array.make n 0.0 in
  let lower = Array.make n 0.0 in
  let cents = seed_plus_plus rng k pts n dim ~best_j ~best_d ~lower in
  let assignment = Array.make n (-1) in
  let sizes = Array.make k 0 in
  let sums = Array.make (k * dim) 0.0 in
  let distortion = ref 0.0 in
  let changed = ref true in
  let iters = ref 0 in
  (* [moved.(j)]: centroid [j] changed in the last update, and
     [prev] holds the centroids the last search measured against *)
  let moved = Array.make k false in
  let prev = Array.make (k * dim) 0.0 in
  (* the first search's answer is the seeding's *)
  let carried = ref true in
  (* The search is pure per point, so it fans out across the domain
     pool into per-point slots.  The O(n*dim) accumulation of
     sizes/sums/distortion stays sequential in point order: summing
     per-domain float partials would round differently per job count,
     and simulation-point selection must be bit-for-bit identical
     whether jobs is 1 or 16.

     Each point measures its last winner [a] first — its distance is
     needed for the distortion either way, is usually still the
     minimum, and is still [best_d] if [a] did not move.  Scan order
     cannot change the result: the update keeps the lowest index among
     computed equal-minimum candidates, and a skipped candidate is
     strictly farther than the running best, hence than the minimum. *)
  let search () =
    if !carried then carried := false
    else begin
      (* [top]: the largest drift of any centroid since the last
         search, inflated; [next]: the largest but [top_j]'s *)
      let top = ref 0.0 and top_j = ref (-1) and next = ref 0.0 in
      for j = 0 to k - 1 do
        if moved.(j) then begin
          let step =
            sqrt (sqd_flat cents (j * dim) prev (j * dim) dim) *. inflate
          in
          if step > !top then begin
            next := !top;
            top := step;
            top_j := j
          end
          else if step > !next then next := step
        end
      done;
      let top = !top and top_j = !top_j and next = !next in
      let thr = pair_thresholds cents k dim in
      (* the centroid gaps, shaved by the margin like [thr] *)
      let gap = Array.map (fun t -> sqrt (t *. 4.0)) thr in
      (* Every other centroid moved at most [top] (or [next], if [a]
         moved most) since [lower] was set: if [a] is still closer than
         the loosened bound, with {!margin} to spare, it is the strict
         unique minimum.  Otherwise every centroid is scanned in index
         order from [a], skipping those the pair thresholds put strictly
         farther than the running best, and [lower] restarts from the
         losers' distances and bounds. *)
      let settle_or_scan i =
        let a = Array.unsafe_get best_j i in
        let u =
          if Array.unsafe_get moved a then
            sqd_flat pts (i * dim) cents (a * dim) dim
          else Array.unsafe_get best_d i
        in
        let l = Array.unsafe_get lower i -. if a = top_j then next else top in
        if l > 0.0 && u *. margin < l *. l then begin
          Array.unsafe_set best_d i u;
          Array.unsafe_set lower i l
        end
        else begin
          let po = i * dim in
          let best = ref a and bd = ref u and rb = ref (sqrt u) in
          (* squared while scanning *)
          let second = ref infinity in
          for j = 0 to k - 1 do
            if j <> a then begin
              let row = !best * k in
              if Array.unsafe_get thr (row + j) > !bd then begin
                let lb = Array.unsafe_get gap (row + j) -. !rb in
                let lb = lb *. lb in
                if lb < !second then second := lb
              end
              else begin
                let d = sqd_flat pts po cents (j * dim) dim in
                if d < !bd || (d = !bd && j < !best) then begin
                  if !bd < !second then second := !bd;
                  bd := d;
                  best := j;
                  rb := sqrt d
                end
                else if d < !second then second := d
              end
            end
          done;
          Array.unsafe_set best_j i !best;
          Array.unsafe_set best_d i !bd;
          Array.unsafe_set lower i (sqrt !second)
        end
      in
      Sp_util.Pool.parallel_for ~jobs ~n (fun lo hi ->
          for i = lo to hi - 1 do
            settle_or_scan i
          done)
    end;
    Array.blit cents 0 prev 0 (k * dim)
  in
  (* [dirty.(j)]: cluster [j] gained or lost a member this round.  A
     clean cluster has the same members in the same order as last
     round, so re-summing it would reproduce its size, sum and centroid
     bit for bit: only dirty clusters are re-summed. *)
  let dirty = Array.make k false in
  while !changed && !iters < max_iters do
    changed := false;
    incr iters;
    search ();
    Array.fill dirty 0 k false;
    distortion := 0.0;
    for i = 0 to n - 1 do
      let j = best_j.(i) and was = assignment.(i) in
      if was <> j then begin
        if was >= 0 then dirty.(was) <- true;
        dirty.(j) <- true;
        assignment.(i) <- j;
        changed := true
      end;
      distortion := !distortion +. best_d.(i)
    done;
    for j = 0 to k - 1 do
      if dirty.(j) then begin
        sizes.(j) <- 0;
        Array.fill sums (j * dim) dim 0.0
      end
    done;
    for i = 0 to n - 1 do
      let j = assignment.(i) in
      if dirty.(j) then begin
        sizes.(j) <- sizes.(j) + 1;
        let s = j * dim and p = i * dim in
        for x = 0 to dim - 1 do
          Array.unsafe_set sums (s + x)
            (Array.unsafe_get sums (s + x) +. Array.unsafe_get pts (p + x))
        done
      end
    done;
    (* recompute centroids; re-seed empty clusters on the farthest point.
       [best_d] already holds each point's squared distance to its
       nearest centroid from this round's search — reusing it avoids an
       O(n*dim) rescan and keeps the reseed anchored to the centroids the
       assignment was actually made against (the rescan measured against
       centroids partially overwritten earlier in this very loop). *)
    for j = 0 to k - 1 do
      moved.(j) <- dirty.(j);
      if sizes.(j) = 0 then begin
        let far = ref 0 and far_d = ref neg_infinity in
        for i = 0 to n - 1 do
          if best_d.(i) > !far_d then begin
            far_d := best_d.(i);
            far := i
          end
        done;
        Array.blit pts (!far * dim) cents (j * dim) dim;
        moved.(j) <- true;
        changed := true
      end
      else if dirty.(j) then begin
        let s = j * dim and inv = 1.0 /. float_of_int sizes.(j) in
        for x = 0 to dim - 1 do
          cents.(s + x) <- sums.(s + x) *. inv
        done
      end
    done
  done;
  (* Final consistent assignment pass, needed only when the loop ran out
     of iterations.  A converged round changed no assignment and
     reseeded no cluster, so the previous round reseeded none either
     (its empty cluster would still be empty) and both rounds averaged
     the same members in the same order: the centroids are bitwise the
     ones this round searched against, and its assignment, sizes and
     distortion are what the pass would recompute. *)
  if !changed then begin
    Array.fill sizes 0 k 0;
    distortion := 0.0;
    search ();
    for i = 0 to n - 1 do
      let j = best_j.(i) in
      assignment.(i) <- j;
      sizes.(j) <- sizes.(j) + 1;
      distortion := !distortion +. best_d.(i)
    done
  end;
  let centroids = Array.init k (fun j -> Array.sub cents (j * dim) dim) in
  { k; assignment; centroids; sizes; distortion = !distortion }

let within_cluster_variance result points =
  let acc = Array.make result.k 0.0 in
  Array.iteri
    (fun i p ->
      let j = result.assignment.(i) in
      acc.(j) <- acc.(j) +. sq_distance p result.centroids.(j))
    points;
  Array.mapi
    (fun j total ->
      if result.sizes.(j) = 0 then 0.0 else total /. float_of_int result.sizes.(j))
    acc
