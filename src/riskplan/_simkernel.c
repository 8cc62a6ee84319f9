/* Tick loop of the disturbed kinematic simulator (see simulator.py) and
 * the voxel walk of the occupancy grid (see occupancy.py).
 *
 * Every expression keeps the evaluation order of the numpy code it
 * replaced, so a record or a grid is the same bit for bit; compile with
 * -ffp-contract=off and without -ffast-math.  Distances are
 * sqrt(fma(z, z, fma(y, y, x*x))), which is how the BLAS dot product
 * behind refiner._norm and np.linalg.norm rounds a 3-vector.
 */
#include <math.h>

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

void norm3_batch(long n, const double *v, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = norm3(v[3 * i], v[3 * i + 1], v[3 * i + 2]);
}

/* Advance every RUNNING row by up to `ticks` ticks of `dt` seconds.
 *
 * points (last, 3) and speeds (last,) are the trajectory; half (m, 3) the
 * obstacle half extents; centers (n, m, 3) each row's displaced obstacle
 * centres.  When drift is set, noise (n, ticks, 3) holds each row's drift
 * velocities for these ticks.  pos (n, 3), k (n,), sim_time (n,),
 * in_contact (n, m) and status (n,) carry each row's state between calls.
 * Each fresh incident is written to the event buffers, in row order and,
 * within a row, in the order it happened; they must hold n * ticks * m
 * events.  Returns the number of events written.
 */
long simulate_ticks(long n, long ticks, double dt,
                    const double *points, const double *speeds, long last,
                    long m, const double *half, const double *centers,
                    int drift, const double *noise,
                    double capture_radius, double clearance,
                    double penalty, int abort_on_collision, double timeout,
                    double *pos, long *k, double *sim_time,
                    unsigned char *in_contact, signed char *status,
                    long *ev_row, long *ev_obs, double *ev_time,
                    double *ev_dist)
{
    long events = 0;
    for (long row = 0; row < n; row++) {
        double *p = pos + 3 * row;
        const double *c = centers + 3 * m * row;
        unsigned char *contact = in_contact + m * row;
        long kk = k[row];
        double t = sim_time[row];
        for (long tick = 0; tick < ticks && status[row] == RUNNING; tick++) {
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
            if (drift) {
                const double *v = noise + 3 * (ticks * row + tick);
                p[0] = p[0] + v[0] * dt;
                p[1] = p[1] + v[1] * dt;
                p[2] = p[2] + v[2] * dt;
            }
            t += dt - leftover;

            /* obstacles in declaration order: a second incident in this
             * tick is stamped after the first one's penalty */
            int aborted = 0;
            for (long j = 0; j < m; j++) {
                const double *cj = c + 3 * j, *hj = half + 3 * j;
                double d = norm3(pos_part(fabs(p[0] - cj[0]) - hj[0]),
                                 pos_part(fabs(p[1] - cj[1]) - hj[1]),
                                 pos_part(fabs(p[2] - cj[2]) - hj[2]));
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
 * directions, ranges (n,) the measured and max_ranges (n,) the maximum
 * ranges.  Each beam walks the voxels from pos to its endpoint (Amanatides
 * & Woo): the voxel holding the endpoint of a return gains l_hit, every
 * other voxel on the way l_miss, each sum clamped to [lo_min, lo_max] in
 * the order the walk reaches it.
 */
void integrate_beams(long n, const double *pos, const double *dirs,
                     const double *ranges, const double *max_ranges,
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
        int returned = ranges[b] < max_ranges[b] - 1e-9;
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
