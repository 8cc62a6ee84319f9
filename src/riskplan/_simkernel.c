/* Sampling loop of the trajectory refiner (see refiner.py), tick loop of
 * the disturbed kinematic simulator (see simulator.py) and voxel walk of
 * the occupancy grid (see occupancy.py).
 *
 * Every expression keeps the evaluation order of the Python or numpy code
 * it replaced, so a trajectory, a record or a grid is the same bit for
 * bit; compile with -ffp-contract=off and without -ffast-math.  Distances
 * are sqrt(fma(z, z, fma(y, y, x*x))), which is how the BLAS dot product
 * behind np.linalg.norm rounds a 3-vector.  Python's min() and max() keep
 * the first of equal arguments, and so do the comparisons that stand for
 * them here.
 *
 * The simulator's drift is drawn here from each episode's own numpy bit
 * generator, with the normal sampler of numpy's libnpyrandom.a that
 * Generator.normal calls, so the streams are numpy's.
 */
#include <math.h>
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

/* Fold n beams cast from pos (3,) into the C-ordered log_odds grid of
 * dims (3,) voxels, of side res, from origin (3,).  dirs (n, 3) are unit
 * directions, ranges (n,) the measured ranges and max_range the one
 * maximum range of them all.  Each beam walks the voxels from pos to its
 * endpoint (Amanatides & Woo): the voxel holding the endpoint of a return
 * gains l_hit, every other voxel on the way l_miss, each sum clamped to
 * [lo_min, lo_max] in the order the walk reaches it.
 */
void integrate_beams(long n, const double *pos, const double *dirs,
                     const double *ranges, double max_range,
                     double l_hit, double l_miss, double lo_min, double lo_max,
                     const double *origin, const long *dims, double res,
                     double *log_odds)
{
    long start[3];
    for (int k = 0; k < 3; k++)
        start[k] = cell(pos[k], origin[k], res);
    for (long b = 0; b < n; b++) {
        const double *d = dirs + 3 * b;
        double end[3], dir[3];
        long hit[3], idx[3] = {start[0], start[1], start[2]};
        for (int k = 0; k < 3; k++) {
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
}
