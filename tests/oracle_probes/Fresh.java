import javax.annotation.concurrent.ThreadSafe;

// getLock() makes a new object on each call, so two threads lock two
// objects: a call guards nothing, P3 reports x, and the oracle finds the race
@ThreadSafe
class Fresh {
  private int x;

  private Object getLock() {
    return new Object();
  }

  public void inc() {
    synchronized (getLock()) {
      x = x + 1;
    }
  }
}
