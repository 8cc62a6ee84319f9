/* Log-domain value iteration of the risk-averse planner (see planner.py),
 * sampling loop of the trajectory refiner (see refiner.py), tick loop of
 * the disturbed kinematic simulator (see simulator.py), and the occupancy
 * grid's slab test, voxel walk, extraction scan and grid.csv rows (see
 * occupancy.py).
 *
 * Every expression keeps the evaluation order of the Python or numpy code
 * it replaced, so a plan and its log values, a trajectory, a record, a
 * scan, a grid, an extracted scenario or a grid.csv is the same bit for
 * bit; compile with
 * -ffp-contract=off and without -ffast-math.  Distances are
 * sqrt(fma(z, z, fma(y, y, x*x))), which is how the BLAS dot product
 * behind np.linalg.norm rounds a 3-vector, except in the extraction scan:
 * np.linalg.norm(v, axis=1) sums a row's squares in order, with no fma.
 * Python's min() and max() keep the first of equal arguments, and so do
 * the comparisons that stand for them here.
 *
 * The simulator's drift is drawn here from each episode's own numpy bit
 * generator, with the normal sampler of numpy's libnpyrandom.a that
 * Generator.normal calls, so the streams are numpy's.
 */
#include <math.h>
#include <time.h>
#include <numpy/random/bitgen.h>

/* from numpy/random/distributions.h, which needs Python's headers */
double random_standard_normal(bitgen_t *bitgen_state);

enum { RUNNING = 0, COMPLETED = 1, FAILED = 2 };

static double norm3(double x, double y, double z)
{
    return sqrt(fma(z, z, fma(y, y, x * x)));
}

/* numpy's maximum(v, 0.0): NaN propagates */
static double pos_part(double v)
{
    return (v >= 0.0 || v != v) ? v : 0.0;
}

/* Whether p (3,) lies within radius of one of the zones (zones, 3) centres */
static int in_zone(long zones, const double *centers, double radius,
                   const double *p)
{
    for (long j = 0; j < zones; j++) {
        const double *c = centers + 3 * j;
        if (norm3(p[0] - c[0], p[1] - c[1], p[2] - c[2]) <= radius)
            return 1;
    }
    return 0;
}

/* The samples refine_path has made and kept, and the last one kept */
struct rows {
    double *out;
    long capacity, made, kept;
    double last[4];  /* t, x, y, z */
};

/* Keep the sample (t, p, v) unless it is no later than, or within 1e-12
 * of, the last row kept, and write it as the next row of out (capacity,
 * 5) if there is room */
static void put_sample(struct rows *r, double t, const double *p, double v)
{
    const double *l = r->last;
    r->made++;
    if (r->kept && (t <= l[0] || norm3(p[0] - l[1], p[1] - l[2], p[2] - l[3]) < 1e-12))
        return;
    double row[5] = {t, p[0], p[1], p[2], v};
    for (int k = 0; k < 4; k++)
        r->last[k] = row[k];
    if (r->kept < r->capacity)
        for (int k = 0; k < 5; k++)
            r->out[5 * r->kept + k] = row[k];
    r->kept++;
}

/* Sample the polyline pts (npts, 3) every dt seconds under a trapezoidal
 * speed profile per segment: each segment starts from rest, accelerates
 * and brakes at a_max, and is capped at v_crit within radius of one of the
 * zones (zones, 3) critical centres, else at v_max.  A segment runs from
 * the last point kept to the next point more than 1e-12 from it, ends
 * with a sample at its far corner, and starts dt after the corner before
 * it.  A point not that far from the last one kept starts no segment: it
 * counts as one sample made and dropped, and the clock does not move.
 *
 * Keeps the samples put_sample keeps, so no segment's start repeats the
 * corner before it, writes them as rows (t, x, y, z, v) of out (capacity,
 * 5) and returns how many the path keeps.  When that exceeds capacity, only
 * the first capacity rows are written: run again with a buffer of the
 * returned size.  Returns limit + 1 once it has made more than limit
 * samples, kept or not, so a path too long to sample costs no more than one
 * of limit samples.  Returns -1, having written an unknown number of rows,
 * when a step leaves the arc length where it was (dt too small for the
 * path), since the loop would then never end.
 */
long refine_path(long npts, const double *pts, long zones, const double *centers,
                 double radius, double v_max, double v_crit, double a_max,
                 double dt, long limit, long capacity, double *out)
{
    struct rows rows = {out, capacity, 0, 0, {0.0}};
    double t = 0.0;
    const double *a = pts;  /* the last point kept */
    for (long i = 1; i < npts; i++) {
        const double *b = pts + 3 * i;
        double dir[3] = {b[0] - a[0], b[1] - a[1], b[2] - a[2]};
        double seg_len = norm3(dir[0], dir[1], dir[2]);
        if (!(seg_len > 1e-12)) {
            if (++rows.made > limit)
                return limit + 1;
            continue;
        }
        if (a != pts)  /* motion restarts from rest after the corner */
            t += dt;
        for (int k = 0; k < 3; k++)
            dir[k] = dir[k] / seg_len;
        double s = 0.0, v = 0.0;
        while (s < seg_len - 1e-12) {
            double pos[3];
            for (int k = 0; k < 3; k++)
                pos[k] = a[k] + dir[k] * s;
            double remaining = seg_len - s;
            double cap = in_zone(zones, centers, radius, pos) ? v_crit : v_max;
            double brake = sqrt(2.0 * a_max * remaining);
            v = v + a_max * dt;
            if (cap < v)
                v = cap;
            if (brake < v)
                v = brake;
            if (v > v_crit) {
                /* brake early for a zone the step would enter */
                double ahead = s + v * dt, nxt[3];
                if (seg_len < ahead)
                    ahead = seg_len;
                for (int k = 0; k < 3; k++)
                    nxt[k] = a[k] + dir[k] * ahead;
                if (in_zone(zones, centers, radius, nxt))
                    v = v_crit;
            }
            put_sample(&rows, t, pos, v);
            if (rows.made > limit)
                return limit + 1;
            double step = v * dt;
            if (step >= remaining) {
                t += remaining / v;
                s = seg_len;
            } else {
                if (s + step == s)
                    return -1;
                t += dt;
                s += step;
            }
        }
        /* the corner sample closes the segment */
        double corner_v = v;
        if (a_max * dt > corner_v)
            corner_v = a_max * dt;
        put_sample(&rows, t, b, corner_v);
        if (rows.made > limit)
            return limit + 1;
        a = b;
    }
    return rows.kept;
}

/* Run every RUNNING row until it completes, times out or aborts.
 *
 * points (last, 3) and speeds (last,) are the trajectory; half (m, 3) the
 * obstacle half extents; centers (n, m, 3) each row's displaced obstacle
 * centres.  When sigma > 0, each tick adds a drift velocity to the row's
 * position, drawn per axis as Generator.normal(0.0, sigma) draws it, from
 * the row's bit generator gens[row].  pos (n, 3), k (n,), sim_time (n,),
 * in_contact (n, m) and status (n,) carry each row's state between calls.
 * Each fresh incident is written to the event buffers of `capacity`
 * events, in row order and, within a row, in the order it happened.
 * Returns the number of events written.  A tick can write m events, so
 * the call returns at a tick boundary once fewer than m slots are free,
 * with some rows still RUNNING: drain the buffers and call again.
 */
long simulate_ticks(long n, double dt,
                    const double *points, const double *speeds, long last,
                    long m, const double *half, const double *centers,
                    bitgen_t *const *gens, double sigma,
                    double capture_radius, double clearance,
                    double penalty, int abort_on_collision, double timeout,
                    double *pos, long *k, double *sim_time,
                    unsigned char *in_contact, signed char *status,
                    long capacity, long *ev_row, long *ev_obs, double *ev_time,
                    double *ev_dist)
{
    /* a gap of g >= 2^-500 on one axis makes the norm >= g, since
     * sqrt(fl(g*g)) == g while g*g is normal and the fma sums only grow:
     * no box at least `skip` away on an axis can be within clearance */
    double skip = clearance > 0x1p-500 ? clearance : 0x1p-500;
    long events = 0;
    for (long row = 0; row < n; row++) {
        double *p = pos + 3 * row;
        const double *c = centers + 3 * m * row;
        unsigned char *contact = in_contact + m * row;
        long kk = k[row];
        double t = sim_time[row];
        while (status[row] == RUNNING && capacity - events >= m) {
            /* move for one tick, consuming samples as the capture radius
             * allows */
            double room = dt;
            int far;
            do {
                const double *q = points + 3 * kk;
                double speed = speeds[kk];
                double gx = q[0] - p[0], gy = q[1] - p[1], gz = q[2] - p[2];
                double dist = norm3(gx, gy, gz);
                double reach = pos_part(dist - capture_radius);
                far = reach > speed * room;
                if (far) {
                    /* beyond reach: travel the whole budget toward it */
                    p[0] = p[0] + ((gx / dist) * speed) * room;
                    p[1] = p[1] + ((gy / dist) * speed) * room;
                    p[2] = p[2] + ((gz / dist) * speed) * room;
                    room = 0.0;
                } else {
                    /* capture it, spending reach / speed of the budget */
                    if (dist > 0.0) {
                        p[0] = p[0] + (gx / dist) * reach;
                        p[1] = p[1] + (gy / dist) * reach;
                        p[2] = p[2] + (gz / dist) * reach;
                    }
                    room = room - reach / speed;
                    kk++;
                }
            } while (room > 0.0 && kk < last);
            double leftover = kk == last ? room : 0.0;
            if (sigma > 0.0) {
                for (int a = 0; a < 3; a++) {
                    double v = 0.0 + sigma * random_standard_normal(gens[row]);
                    p[a] = p[a] + v * dt;
                }
            }
            t += dt - leftover;

            /* obstacles in declaration order: a second incident in this
             * tick is stamped after the first one's penalty */
            int aborted = 0;
            for (long j = 0; j < m; j++) {
                const double *cj = c + 3 * j, *hj = half + 3 * j;
                double gx = pos_part(fabs(p[0] - cj[0]) - hj[0]);
                double gy = pos_part(fabs(p[1] - cj[1]) - hj[1]);
                double gz = pos_part(fabs(p[2] - cj[2]) - hj[2]);
                double d = INFINITY;
                if (gx < skip && gy < skip && gz < skip)
                    d = norm3(gx, gy, gz);
                int touching = d < clearance;
                if (touching && !contact[j] && !aborted) {
                    ev_row[events] = row;
                    ev_obs[events] = j;
                    ev_time[events] = t;
                    ev_dist[events] = d;
                    events++;
                    t += penalty;
                    aborted = abort_on_collision;
                }
                contact[j] = (unsigned char)touching;
            }

            if (aborted || t > timeout)
                status[row] = FAILED;
            else if (kk == last)
                status[row] = COMPLETED;
        }
        k[row] = kk;
        sim_time[row] = t;
        if (status[row] == RUNNING)
            break;  /* the event buffers are full */
    }
    return events;
}

/* Voxel index of coordinate x along one axis, as VoxelGrid.index_of */
static long cell(double x, double origin, double res)
{
    return (long)floor((x - origin) / res);
}

static int in_grid(const long *idx, const long *dims)
{
    return 0 <= idx[0] && idx[0] < dims[0] && 0 <= idx[1] && idx[1] < dims[1]
        && 0 <= idx[2] && idx[2] < dims[2];
}

/* Fold n beams into the C-ordered log_odds grid of dims (3,) voxels, of
 * side res, from origin (3,), and return the number of voxel updates made.
 * Beam b is cast from origins[b] (n, 3) along the unit direction dirs[b]
 * (n, 3); ranges (n,) are the measured ranges and max_range the one
 * maximum range of them all.  Each beam walks the voxels from its origin
 * to its endpoint (Amanatides & Woo): the voxel holding the endpoint of a
 * return gains l_hit, every other voxel on the way l_miss, each sum
 * clamped to [lo_min, lo_max] in the order the walk reaches it.
 */
long integrate_beams(long n, const double *origins, const double *dirs,
                     const double *ranges, double max_range,
                     double l_hit, double l_miss, double lo_min, double lo_max,
                     const double *origin, const long *dims, double res,
                     double *log_odds)
{
    long updates = 0;
    for (long b = 0; b < n; b++) {
        const double *pos = origins + 3 * b, *d = dirs + 3 * b;
        double end[3], dir[3];
        long hit[3], idx[3];
        for (int k = 0; k < 3; k++) {
            idx[k] = cell(pos[k], origin[k], res);
            end[k] = pos[k] + d[k] * ranges[b];
            dir[k] = end[k] - pos[k];
            hit[k] = cell(end[k], origin[k], res);
        }
        int returned = ranges[b] < max_range - 1e-9;
        double seg_len = norm3(dir[0], dir[1], dir[2]);

        long step[3] = {0, 0, 0};
        double t_max[3] = {INFINITY, INFINITY, INFINITY};
        double t_delta[3] = {INFINITY, INFINITY, INFINITY};
        if (seg_len != 0.0) {
            for (int k = 0; k < 3; k++) {
                double u = dir[k] / seg_len;
                if (u > 0) {
                    step[k] = 1;
                    t_max[k] = (origin[k] + (double)(idx[k] + 1) * res - pos[k]) / u;
                    t_delta[k] = res / u;
                } else if (u < 0) {
                    step[k] = -1;
                    t_max[k] = (origin[k] + (double)idx[k] * res - pos[k]) / u;
                    t_delta[k] = -res / u;
                }
            }
        }

        /* a zero-length segment visits its start voxel only */
        double stop = seg_len + 1e-12, t = 0.0;
        int entered = 0;
        while (t <= stop) {
            if (in_grid(idx, dims)) {
                double *v = log_odds + (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2];
                int is_hit = returned && idx[0] == hit[0] && idx[1] == hit[1]
                    && idx[2] == hit[2];
                double sum = *v + (is_hit ? l_hit : l_miss);
                sum = sum > lo_min ? sum : lo_min;
                *v = sum < lo_max ? sum : lo_max;
                updates++;
                entered = 1;
            } else if (entered) {
                break;  /* left the grid after entering it */
            }
            if (seg_len == 0.0)
                break;
            /* nearest boundary; ties go to the lowest axis */
            int axis = 0;
            if (t_max[1] < t_max[axis])
                axis = 1;
            if (t_max[2] < t_max[axis])
                axis = 2;
            t = t_max[axis];
            if (t > stop)
                break;
            idx[axis] += step[axis];
            t_max[axis] += t_delta[axis];
        }
    }
    return updates;
}

/* Per scan and beam, the range to the nearest of the m boxes (corners lo
 * and hi, (m, 3)) that the beam meets within max_range, or inf, into out
 * (scans, beams): the slab test (Williams et al. 2005) of each beam of dirs
 * (scans, beams, 3) from its scan's origin in origins (scans, 3).  A
 * component of 0.0 (of either sign) is parallel to its slabs, which the
 * beam then meets only from inside.  Each comparison is the one numpy's
 * where() made, axis by axis and then box by box, so every range is the
 * one a per-box loop finds, down to the sign of a zero.
 */
void nearest_hits(long scans, long beams, const double *origins,
                  const double *dirs, long m, const double *lo,
                  const double *hi, double max_range, double *out)
{
    for (long s = 0; s < scans; s++) {
        const double *o = origins + 3 * s;
        for (long i = 0; i < beams; i++) {
            const double *d = dirs + 3 * (s * beams + i);
            double nearest = INFINITY;
            for (long j = 0; j < m; j++) {
                const double *l = lo + 3 * j, *h = hi + 3 * j;
                double t_near = -INFINITY, t_far = INFINITY;
                int miss = 0;
                for (int k = 0; k < 3; k++) {
                    if (d[k] == 0.0) {
                        miss |= !(l[k] <= o[k] && o[k] <= h[k]);
                        continue;
                    }
                    double a = (l[k] - o[k]) / d[k], b = (h[k] - o[k]) / d[k];
                    double near = b < a ? b : a, far = b > a ? b : a;
                    if (near > t_near)
                        t_near = near;
                    if (far < t_far)
                        t_far = far;
                }
                double r = 0.0 > t_near ? 0.0 : t_near;
                if (!miss && !(t_near > t_far) && !(t_far < 0) && r <= max_range
                    && r < nearest)
                    nearest = r;
            }
            out[s * beams + i] = nearest;
        }
    }
}

/* floor((x - origin) / res) + shift, clipped to [0, dim] as a float before
 * the cast, so a far-off x cannot wrap; NaN clips to 0 */
static long block_bound(double x, double origin, double res, double shift,
                        long dim)
{
    double f = floor((x - origin) / res) + shift;
    return f > 0.0 ? (f < (double)dim ? (long)f : dim) : 0;
}

/* Distance from c (3,) to the segment from a to b (3,) whose difference
 * ab = b - a scaled by `scale` is ab_s, with denom = ab_s . ab_s.  Each
 * sum in numpy's order: the parameter t from a with the offsets scaled
 * too, clipped to [0, 1] as np.clip does (NaN stays), and a point whose t
 * is 1 measured from b itself. */
static double segment_distance(const double *c, const double *a,
                               const double *b, const double *ab,
                               const double *ab_s, double scale, double denom)
{
    double e[3];
    if (denom == 0.0) {
        for (int k = 0; k < 3; k++)
            e[k] = c[k] - a[k];
    } else {
        double r0 = (c[0] - a[0]) * scale, r1 = (c[1] - a[1]) * scale;
        double r2 = (c[2] - a[2]) * scale;
        double t = ((r0 * ab_s[0] + r1 * ab_s[1]) + r2 * ab_s[2]) / denom;
        t = (t > 0.0 || t != t) ? t : 0.0;
        t = (t < 1.0 || t != t) ? t : 1.0;
        for (int k = 0; k < 3; k++)
            e[k] = c[k] - (t == 1.0 ? b[k] : a[k] + t * ab[k]);
    }
    return sqrt((e[0] * e[0] + e[1] * e[1]) + e[2] * e[2]);
}

/* For each of the n segments from a to b (n, 3), the greatest log-odds of
 * a voxel with evidence (|log-odds| > eps) whose centre lies within radius
 * of it, or -inf if none, into out (n,).  Segment i is measured from a[i]
 * with scale[i] and denom[i] as segment_distance takes them.  Only the
 * block of the C-ordered log_odds grid of dims (3,) voxels, of side res,
 * from origin (3,), that can hold such a voxel is read: per axis, from one
 * voxel below the one holding the segment's least coordinate less the
 * radius to one above the one holding its greatest plus the radius.
 */
void max_near_segments(long n, const double *a, const double *b,
                       const double *scale, const double *denom, double radius,
                       double eps, const double *origin, const long *dims,
                       double res, const double *log_odds, double *out)
{
    for (long s = 0; s < n; s++) {
        const double *p = a + 3 * s, *q = b + 3 * s;
        double ab[3], ab_s[3];
        long first[3], end[3];
        for (int k = 0; k < 3; k++) {
            ab[k] = q[k] - p[k];
            ab_s[k] = ab[k] * scale[s];
            double least = q[k] < p[k] ? q[k] : p[k];
            double most = q[k] > p[k] ? q[k] : p[k];
            first[k] = block_bound(least - radius, origin[k], res, -1.0, dims[k]);
            end[k] = block_bound(most + radius, origin[k], res, 2.0, dims[k]);
        }
        double best = -INFINITY;
        for (long i = first[0]; i < end[0]; i++) {
            for (long j = first[1]; j < end[1]; j++) {
                const double *row = log_odds + (i * dims[1] + j) * dims[2];
                for (long k = first[2]; k < end[2]; k++) {
                    double l = row[k];
                    /* a voxel that cannot raise the maximum is not measured */
                    if (!(fabs(l) > eps) || !(l > best))
                        continue;
                    double c[3] = {origin[0] + ((double)i + 0.5) * res,
                                   origin[1] + ((double)j + 0.5) * res,
                                   origin[2] + ((double)k + 0.5) * res};
                    if (segment_distance(c, p, q, ab, ab_s, scale[s], denom[s]) <= radius)
                        best = l;
                }
            }
        }
        out[s] = best;
    }
}

/* The decimal digits of v >= 0 at p; returns the end */
static unsigned char *put_index(unsigned char *p, long v)
{
    unsigned char digits[20];
    int n = 0;
    do {
        digits[n++] = (unsigned char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (n)
        *p++ = digits[--n];
    return p;
}

/* The grid.csv rows "ix,iy,iz,<text>" of the n voxels at C-order indexes
 * flat (n,) of a grid of dims (3,) voxels, into out.  A voxel's text is
 * texts[offsets[w]:offsets[w + 1]] for its w in which (n,).  Returns the
 * bytes written; out must have room for them.
 */
long grid_rows(long n, const long *flat, const long *which, const long *dims,
               const long *offsets, const unsigned char *texts,
               unsigned char *out)
{
    unsigned char *p = out;
    for (long i = 0; i < n; i++) {
        long f = flat[i];
        p = put_index(p, f / (dims[1] * dims[2]));
        *p++ = ',';
        p = put_index(p, f / dims[2] % dims[1]);
        *p++ = ',';
        p = put_index(p, f % dims[2]);
        *p++ = ',';
        for (long c = offsets[which[i]]; c < offsets[which[i] + 1]; c++)
            *p++ = texts[c];
    }
    return p - out;
}

/* The compressed rows of a model, by position (see mdp.Mdp.arrays) */
struct model {
    long n;                  /* states */
    const double *costs;     /* (n,) */
    const long *act_start;   /* (n + 1,): state i's actions, in id order */
    const long *move_start;  /* (actions + 1,): action a's moves */
    const double *move_logp; /* (moves,) ln P of each move */
    const long *move_target; /* (moves,) */
    const long *pred_start;  /* (n + 1,): the states with a move into i */
    const long *preds;       /* ascending within each state */
    const unsigned char *reach; /* (n,) GOAL, REACHES or 0 */
};

enum { REACHES = 1, GOAL = 2 };  /* as mdp.REACHES and mdp.GOAL */
enum { SOLVE_NONCONVERGENCE = -1, SOLVE_NO_PROPER_POLICY = -2 };

/* The solver's helpers are always inlined into solve_mdp, so the kernel
 * gains no function ahead of the entry points above, whose code keeps its
 * addresses.  Emitted on their own, they moved the tick loop, and the
 * benchmark's tanks-mc ops_per_s_norm read ~3% lower. */
#define ALWAYS_INLINE inline __attribute__((always_inline))

static ALWAYS_INLINE double seconds_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* Whether value iteration backs state i up: a goal-reaching state, not a
 * goal, with an action */
static ALWAYS_INLINE int swept(const struct model *m, long i)
{
    return m->reach[i] == REACHES && m->act_start[i] < m->act_start[i + 1];
}

/* The lowest action value of state i, cost excluded, into *low, and the
 * first action that has it, so ties go to the lowest action id.  An
 * action's value is the logsumexp of the terms ln P + log V of its moves:
 * the first largest term, top, plus the log of the sum of exp(term - top),
 * added in order. */
static ALWAYS_INLINE long backup(const struct model *m, const double *logv, long i, double *low)
{
    long best = -1;
    for (long a = m->act_start[i]; a < m->act_start[i + 1]; a++) {
        long first = m->move_start[a], end = m->move_start[a + 1];
        double v = m->move_logp[first] + logv[m->move_target[first]];
        if (end - first > 1) {
            double top = v;
            for (long k = first; k < end; k++) {
                double t = m->move_logp[k] + logv[m->move_target[k]];
                if (t > top)
                    top = t;
            }
            if (top == INFINITY) {
                v = INFINITY;
            } else {
                double total = 0.0;
                for (long k = first; k < end; k++)
                    total += exp(m->move_logp[k] + logv[m->move_target[k]] - top);
                v = top + log(total);
            }
        }
        if (best < 0 || v < *low) {
            *low = v;
            best = a;
        }
    }
    return best;
}

/* A FIFO worklist of states, each in it at most once */
struct worklist {
    long *ring;              /* (n,) */
    long *queued;            /* (n,) */
    long n, head, size;
};

static ALWAYS_INLINE void push(struct worklist *q, long i)
{
    q->queued[i] = 1;
    q->ring[(q->head + q->size++) % q->n] = i;
}

/* Back up the states of the worklist, first in first out, until it is
 * empty: a state whose log V moves by tolerance or more queues again each
 * predecessor not already queued.  Only swept states ever leave it.  Each
 * pop spends one of *budget; returns 0, or -1 once the budget is spent. */
static ALWAYS_INLINE int drain(const struct model *m, double log_x, double tolerance,
                 double *logv, struct worklist *q, long *budget)
{
    while (q->size) {
        long i = q->ring[q->head];
        q->head = (q->head + 1) % q->n;
        q->size--;
        q->queued[i] = 0;
        if (--*budget < 0)
            return -1;
        double low = INFINITY;  /* a swept state has an action */
        backup(m, logv, i, &low);
        double new = m->costs[i] * log_x + low, old = logv[i];
        logv[i] = new;
        if (new == old || fabs(new - old) < tolerance)
            continue;
        for (long p = m->pred_start[i]; p < m->pred_start[i + 1]; p++)
            if (!q->queued[m->preds[p]])
                push(q, m->preds[p]);
    }
    return 0;
}

/* Whether every move of action a leads to a finite-valued state or into
 * keep, and whether one of them leads into `into` (or, when into is NULL,
 * to a finite-valued state) */
static ALWAYS_INLINE int leads(const struct model *m, const double *logv, const long *keep,
                 const long *into, long a)
{
    int all = 1, some = 0;
    for (long k = m->move_start[a]; k < m->move_start[a + 1]; k++) {
        long j = m->move_target[k];
        all &= logv[j] < INFINITY || keep[j];
        some |= into ? into[j] : logv[j] < INFINITY;
    }
    return all && some;
}

static ALWAYS_INLINE int some_action_leads(const struct model *m, const double *logv,
                             const long *keep, const long *into, long i)
{
    for (long a = m->act_start[i]; a < m->act_start[i + 1]; a++)
        if (leads(m, logv, keep, into, a))
            return 1;
    return 0;
}

/* Narrow keep (n,), the swept states still at +inf, to those from which
 * some policy reaches a finite-valued state with probability 1: the
 * greatest set whose every state reaches a finite state through actions
 * that lead only to finite states or back into the set (almost-sure
 * reachability).  good (n,) and stack (n,) are scratch.  Returns the
 * size of the set. */
static ALWAYS_INLINE long with_proper_policy(const struct model *m, const double *logv,
                               long *keep, long kept, long *good, long *stack)
{
    while (kept) {
        long found = 0, top = 0;
        for (long i = 0; i < m->n; i++) {
            good[i] = keep[i] && some_action_leads(m, logv, keep, NULL, i);
            if (good[i])
                stack[top++] = i, found++;
        }
        while (top) {
            long x = stack[--top];
            for (long p = m->pred_start[x]; p < m->pred_start[x + 1]; p++) {
                long i = m->preds[p];
                if (keep[i] && !good[i] && some_action_leads(m, logv, keep, good, i)) {
                    good[i] = 1;
                    stack[top++] = i;
                    found++;
                }
            }
        }
        if (found == kept)
            break;
        for (long i = 0; i < m->n; i++)
            keep[i] = good[i];
        kept = found;
    }
    return kept;
}

/* Exponential-disutility value iteration in the log domain over the model
 * of n states in the compressed rows described in struct model, with
 * greedy plan extraction; see planner.solve.  log_x is ln(1/gamma) and
 * dead_end the log V of a state with no action (+inf, or the failure
 * cost times log_x).  Value iteration fails after max_sweeps backups per
 * swept state.
 *
 * Writes every state's log V into logv (n,); the policy into policy (n,),
 * as the row of each state's action, in the order the walk from the start
 * meets the states; the worklist pops of both drains into backups (1,);
 * and the seconds from entry to return on CLOCK_MONOTONIC, the clock of
 * Python's time.perf_counter, into seconds (1,).  scratch (5 n + moves +
 * 1,) is the worklist, the stacks and the flags.  Returns the policy's
 * length, or SOLVE_NONCONVERGENCE or SOLVE_NO_PROPER_POLICY (the start
 * stays at +inf).
 */
long solve_mdp(long n, const double *costs, const long *act_start,
               const long *move_start, const double *move_logp,
               const long *move_target, const long *pred_start,
               const long *preds, const unsigned char *reach, long start,
               double log_x, double dead_end, long max_sweeps, double tolerance,
               double *logv, long *policy, long *backups, double *seconds,
               long *scratch)
{
    double entry = seconds_now();
    struct model m = {n, costs, act_start, move_start, move_logp, move_target,
                      pred_start, preds, reach};
    /* scratch holds three flag arrays, the worklist's ring, and a stack
     * that the fixpoint fills with each state at most once, and the walk
     * with the start and the moves of each policy state */
    long *queued = scratch, *keep = scratch + n, *seen = scratch + 2 * n;
    long *stack = scratch + 4 * n;
    struct worklist q = {scratch + 3 * n, queued, n, 0, 0};

    long nswept = 0;
    for (long i = 0; i < n; i++) {
        logv[i] = INFINITY;
        queued[i] = 1;  /* only swept states ever leave the worklist */
        if (reach[i] == GOAL)
            logv[i] = 0.0;
        else if (act_start[i] == act_start[i + 1])
            logv[i] = dead_end;
        else if (swept(&m, i))
            q.ring[nswept++] = i;
    }
    q.size = nswept;
    long budget = max_sweeps * nswept, spent = budget;
    long result = SOLVE_NONCONVERGENCE;
    if (drain(&m, log_x, tolerance, logv, &q, &budget))
        goto done;

    /* the goal-reaching states still at +inf can only finish through a
     * loop of their own: those with a proper policy restart from log V =
     * 0 and the worklist drains again */
    long looped = 0;
    for (long i = 0; i < n; i++) {
        keep[i] = swept(&m, i) && logv[i] == INFINITY;
        looped += keep[i];
    }
    if (with_proper_policy(&m, logv, keep, looped, seen, stack)) {
        for (long i = 0; i < n; i++) {
            if (keep[i])
                logv[i] = 0.0;
            if (swept(&m, i))
                push(&q, i);
        }
        if (drain(&m, log_x, tolerance, logv, &q, &budget))
            goto done;
    }
    backups[0] = spent - budget;
    result = SOLVE_NO_PROPER_POLICY;
    if (logv[start] == INFINITY)
        goto done;

    /* the lowest-valued action of each finite swept state the policy
     * itself reaches from the start, so two plans are comparable as
     * policies; the walk stops at goals and dead ends */
    for (long i = 0; i < n; i++)
        seen[i] = 0;
    long top = 0, len = 0;
    stack[top++] = start;
    while (top) {
        long i = stack[--top];
        if (seen[i] || reach[i] == GOAL || act_start[i] == act_start[i + 1]
            || !(logv[i] < INFINITY))
            continue;
        seen[i] = 1;
        double low;
        long a = backup(&m, logv, i, &low);
        policy[len++] = a;
        for (long k = move_start[a]; k < move_start[a + 1]; k++)
            stack[top++] = move_target[k];
    }
    result = len;
done:
    seconds[0] = seconds_now() - entry;
    return result;
}
