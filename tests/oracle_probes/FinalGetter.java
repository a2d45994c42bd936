import javax.annotation.concurrent.ThreadSafe;

// monitor() returns the own final field mu on every path, so synchronized
// (monitor()) is mu's monitor, the one get() takes: no P3 alert and no race
@ThreadSafe
class FinalGetter {
  private final Object mu = new Object();
  private int x;

  private Object monitor() {
    return mu;
  }

  public void inc() {
    synchronized (monitor()) {
      x = x + 1;
    }
  }

  public int get() {
    synchronized (mu) {
      return x;
    }
  }
}
